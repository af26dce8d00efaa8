// Format-v3 container: round trips, O(1) seeks, ROI-equals-full-decode,
// forged-directory rejection, and cache-backed repeat queries.
#include "core/container.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <utility>

#include "core/compressor.hpp"
#include "iosim/file_source.hpp"
#include "../test_util.hpp"

#ifndef SZX_GOLDEN_DIR
#error "SZX_GOLDEN_DIR must be defined by the build"
#endif

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;
using testing::Rng;
using testing::WithinBound;

/// One-field helper: n elements of `pattern` packed as `timesteps`
/// timesteps with `chunk_elements`-sized chunks.
template <typename T>
ByteBuffer PackOneField(std::span<const T> data, std::uint64_t timesteps,
                        std::uint64_t chunk_elements, Params params = {},
                        const std::string& name = "field0") {
  ContainerWriter w;
  ContainerWriter::FieldSpec spec;
  spec.name = name;
  spec.params = params;
  spec.elements_per_timestep = data.size();
  spec.chunk_elements = chunk_elements;
  const std::uint32_t f =
      w.AddField(spec, std::is_same_v<T, float> ? DataType::kFloat32
                                                : DataType::kFloat64);
  for (std::uint64_t t = 0; t < timesteps; ++t) {
    w.AppendTimestep<T>(f, data);
  }
  return w.Finish();
}

TEST(Container, RoundTripWithinBound) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 30000, 11);
  Params p;
  const ByteBuffer c = PackOneField<float>(data, 1, 4096, p);
  ContainerReader r(c);
  ASSERT_EQ(r.num_fields(), 1u);
  EXPECT_EQ(r.field(0).name, "field0");
  EXPECT_EQ(r.field(0).chunks_per_timestep, 8u);
  EXPECT_EQ(r.num_entries(), 8u);
  const auto out = r.DecompressTimestep<float>(0, 0);
  ASSERT_EQ(out.size(), data.size());
  // The writer resolves the VR-relative bound over the whole timestep, so
  // the chunked encode enforces the same absolute bound a single-stream
  // compression would.
  const double bound = ResolveAbsoluteBound<float>(data, p);
  EXPECT_TRUE(WithinBound<float>(data, out, bound));
}

TEST(Container, RoiMatchesFullDecodeSlice) {
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 20000, 3);
  const ByteBuffer c = PackOneField<float>(data, 1, 1024);
  ContainerReader r(c);
  const auto full = r.DecompressTimestep<float>(0, 0);
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    const std::uint64_t first = rng.Next() % data.size();
    const std::uint64_t count =
        1 + rng.Next() % (data.size() - first);
    std::vector<float> roi(count);
    r.DecompressRange<float>(0, 0, first, std::span<float>(roi),
                             1 + static_cast<int>(iter % 4));
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(roi[i], full[first + i])
          << "first=" << first << " count=" << count << " i=" << i;
    }
  }
  // Chunk-boundary straddles and single elements.
  for (const std::uint64_t first : {0ull, 1023ull, 1024ull, 10239ull}) {
    std::vector<float> roi(2);
    r.DecompressRange<float>(0, 0, first, std::span<float>(roi));
    EXPECT_EQ(roi[0], full[first]);
    EXPECT_EQ(roi[1], full[first + 1]);
  }
}

TEST(Container, MultiFieldMultiTimestepSeeks) {
  const auto f32 = MakePattern<float>(Pattern::kSmoothSine, 9000, 5);
  const auto f64 = MakePattern<double>(Pattern::kRamp, 5000, 6);
  ContainerWriter w;
  ContainerWriter::FieldSpec a;
  a.name = "temperature";
  a.elements_per_timestep = f32.size();
  a.chunk_elements = 2048;
  ContainerWriter::FieldSpec b;
  b.name = "pressure";
  b.elements_per_timestep = f64.size();
  b.chunk_elements = 1024;
  b.params.error_bound = 1e-4;
  const std::uint32_t fa = w.AddField(a, DataType::kFloat32);
  const std::uint32_t fb = w.AddField(b, DataType::kFloat64);
  std::vector<float> f32_t1(f32);
  for (auto& v : f32_t1) v += 1.5f;
  w.AppendTimestep<float>(fa, f32);
  w.AppendTimestep<float>(fa, f32_t1);
  w.AppendTimestep<double>(fb, f64);
  const ByteBuffer c = w.Finish();

  ContainerReader r(c);
  ASSERT_EQ(r.num_fields(), 2u);
  EXPECT_EQ(r.FindField("pressure"), std::optional<std::uint32_t>(fb));
  EXPECT_EQ(r.FindField("absent"), std::nullopt);
  EXPECT_EQ(r.field(fa).timesteps, 2u);
  EXPECT_EQ(r.field(fb).timesteps, 1u);
  // O(1) seek arithmetic: entries are field-contiguous, timestep-major.
  EXPECT_EQ(r.EntryIndex(fa, 0, 0), 0u);
  EXPECT_EQ(r.EntryIndex(fa, 1, 2), r.field(fa).chunks_per_timestep + 2);
  EXPECT_EQ(r.EntryIndex(fb, 0, 0),
            2 * r.field(fa).chunks_per_timestep);
  EXPECT_THROW((void)r.EntryIndex(fa, 2, 0), Error);
  EXPECT_THROW((void)r.EntryIndex(2, 0, 0), Error);
  // Every chunk verifies and both timesteps of field a decode distinctly.
  for (std::uint64_t e = 0; e < r.num_entries(); ++e) {
    EXPECT_TRUE(r.VerifyChunk(e));
  }
  const auto t0 = r.DecompressTimestep<float>(fa, 0);
  const auto t1 = r.DecompressTimestep<float>(fa, 1);
  EXPECT_NE(t0, t1);
  EXPECT_TRUE(WithinBound<float>(f32, t0, 0.2));
  const auto p0 = r.DecompressTimestep<double>(fb, 0);
  EXPECT_TRUE(WithinBound<double>(f64, p0, 0.01));
  // dtype mismatch is rejected.
  EXPECT_THROW((void)r.DecompressTimestep<double>(fa, 0), Error);
}

TEST(Container, RangeValidationAndOverflow) {
  const auto data = MakePattern<float>(Pattern::kRamp, 5000, 2);
  const ByteBuffer c = PackOneField<float>(data, 1, 1024);
  ContainerReader r(c);
  std::vector<float> out(4);
  // In-range but past the end.
  EXPECT_THROW(
      r.DecompressRange<float>(0, 0, 4997, std::span<float>(out)), Error);
  // first + count wraps past UINT64_MAX: CheckedAdd must refuse before any
  // chunk arithmetic sees the inconsistent end position.
  EXPECT_THROW(r.DecompressRange<float>(0, 0, UINT64_MAX - 2,
                                        std::span<float>(out)),
               Error);
  // Bad timestep / field.
  EXPECT_THROW(
      r.DecompressRange<float>(0, 1, 0, std::span<float>(out)), Error);
  EXPECT_THROW(
      r.DecompressRange<float>(1, 0, 0, std::span<float>(out)), Error);
  // Zero-length range is a no-op.
  r.DecompressRange<float>(0, 0, 5000, std::span<float>());
}

TEST(Container, ForgedContainersRejected) {
  const auto data = MakePattern<float>(Pattern::kSmoothSine, 4000, 4);
  const ByteBuffer good = PackOneField<float>(data, 1, 1024);
  ASSERT_TRUE(IsContainer(good));

  {  // Bad magic.
    ByteBuffer bad = good;
    bad[0] = std::byte{'X'};
    EXPECT_FALSE(IsContainer(bad));
    EXPECT_THROW(ContainerReader r(bad), Error);
  }
  {  // Unsupported version.
    ByteBuffer bad = good;
    bad[4] = std::byte{9};
    EXPECT_THROW(ContainerReader r(bad), Error);
  }
  {  // Truncated tail (directory trailer gone).
    ByteBuffer bad(good.begin(), good.end() - 1);
    EXPECT_THROW(ContainerReader r(bad), Error);
  }
  {  // Any flipped directory byte must fail the trailer checksum.
    ByteBuffer bad = good;
    const std::size_t dir_byte = bad.size() - kDirectoryTailBytes - 3;
    bad[dir_byte] ^= std::byte{0x40};
    EXPECT_THROW(ContainerReader r(bad), Error);
  }
  {  // Shorter than a header.
    ByteBuffer bad(good.begin(), good.begin() + 10);
    EXPECT_THROW(ContainerReader r(bad), Error);
  }
}

TEST(Container, DamagedChunkQuarantinedToItsRange) {
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 8192, 8);
  ByteBuffer c = PackOneField<float>(data, 1, 2048);
  ContainerReader clean(c);
  const auto full = clean.DecompressTimestep<float>(0, 0);
  // Flip one byte inside chunk 1's stream (the payload region).
  const std::uint64_t victim = clean.EntryIndex(0, 0, 1);
  const std::uint64_t off = clean.entry(victim).offset +
                            clean.entry(victim).bytes / 2;
  c[static_cast<std::size_t>(off)] ^= std::byte{0x10};
  ContainerReader damaged(c);
  EXPECT_FALSE(damaged.VerifyChunk(victim));
  EXPECT_TRUE(damaged.VerifyChunk(clean.EntryIndex(0, 0, 0)));
  // A range inside the damaged chunk throws...
  std::vector<float> roi(16);
  EXPECT_THROW(
      damaged.DecompressRange<float>(0, 0, 3000, std::span<float>(roi)),
      Error);
  // ...while ranges over the other chunks still decode bit-identically.
  std::vector<float> ok(2048);
  damaged.DecompressRange<float>(0, 0, 0, std::span<float>(ok));
  for (std::size_t i = 0; i < ok.size(); ++i) {
    ASSERT_EQ(ok[i], full[i]);
  }
  damaged.DecompressRange<float>(0, 0, 4096, std::span<float>(ok));
  for (std::size_t i = 0; i < ok.size(); ++i) {
    ASSERT_EQ(ok[i], full[4096 + i]);
  }
}

TEST(Container, CachedQueriesBitIdenticalAndCounted) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 16384, 21);
  const ByteBuffer c = PackOneField<float>(data, 1, 2048);
  ChunkCache cache(1u << 20, 4);
  ContainerReader r(c, &cache);
  EXPECT_NE(r.stream_id(), 0u);
  const auto full = r.DecompressTimestep<float>(0, 0);  // 8 cold misses
  ChunkCacheStats s = cache.Stats();
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.insertions, 8u);
  const auto warm = r.DecompressTimestep<float>(0, 0);  // 8 warm hits
  s = cache.Stats();
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.hits, 8u);
  EXPECT_EQ(warm, full);
  // Partial ROI out of the cache is still bit-identical to the slice.
  std::vector<float> roi(3000);
  r.DecompressRange<float>(0, 0, 1000, std::span<float>(roi));
  for (std::size_t i = 0; i < roi.size(); ++i) {
    ASSERT_EQ(roi[i], full[1000 + i]);
  }
  // A second reader over the same bytes has its own stream id: no aliasing.
  ContainerReader r2(c, &cache);
  EXPECT_NE(r2.stream_id(), r.stream_id());
  const auto other = r2.DecompressTimestep<float>(0, 0);
  EXPECT_EQ(other, full);
  // The ROI over chunks 0..1 hit the warm cache; only r2's 8 chunks miss.
  EXPECT_EQ(cache.Stats().misses, 8u + 8u);
  EXPECT_EQ(cache.Stats().hits, 8u + 2u);
}

TEST(Container, IntegrityChunksCarryFootersAndMixedScalesSurvive) {
  // Mixed-scales data forces raw-passthrough chunks; integrity params make
  // every chunk a v2 stream.  Both must round-trip through the container.
  const auto data = MakePattern<float>(Pattern::kMixedScales, 6000, 13);
  Params p;
  p.integrity = true;
  const ByteBuffer c = PackOneField<float>(data, 1, 1024, p);
  ContainerReader r(c);
  ByteBuffer scratch;
  const Header h = PeekHeader(r.ChunkStream(0, scratch));
  EXPECT_TRUE(scratch.empty());  // a span source hands out views
  EXPECT_EQ(h.version, kFormatVersionIntegrity);
  const auto out = r.DecompressTimestep<float>(0, 0);
  const double bound = ResolveAbsoluteBound<float>(data, p);
  EXPECT_TRUE(WithinBound<float>(data, out, bound));
}

TEST(Container, WriterValidation) {
  ContainerWriter w;
  ContainerWriter::FieldSpec spec;
  spec.name = "f";
  spec.elements_per_timestep = 100;
  const std::uint32_t f = w.AddField(spec, DataType::kFloat32);
  // Duplicate name.
  EXPECT_THROW((void)w.AddField(spec, DataType::kFloat32), Error);
  // Empty name / zero elements.
  ContainerWriter::FieldSpec bad = spec;
  bad.name = "";
  EXPECT_THROW((void)w.AddField(bad, DataType::kFloat32), Error);
  bad.name = "g";
  bad.elements_per_timestep = 0;
  EXPECT_THROW((void)w.AddField(bad, DataType::kFloat32), Error);
  // Wrong element count / dtype for AppendTimestep.
  std::vector<float> data(50, 1.0f);
  EXPECT_THROW(w.AppendTimestep<float>(f, data), Error);
  std::vector<double> d64(100, 1.0);
  EXPECT_THROW(w.AppendTimestep<double>(f, d64), Error);
  data.resize(100, 1.0f);
  w.AppendTimestep<float>(f, data);
  const ByteBuffer c = w.Finish();
  // Spent writer refuses further work.
  EXPECT_THROW(w.AppendTimestep<float>(f, data), Error);
  EXPECT_THROW((void)w.Finish(), Error);
  ContainerReader r(c);
  EXPECT_EQ(r.field(0).timesteps, 1u);
}

TEST(Container, EmptyContainerRoundTrips) {
  ContainerWriter w;
  const ByteBuffer c = w.Finish();
  ContainerReader r(c);
  EXPECT_EQ(r.num_fields(), 0u);
  EXPECT_EQ(r.num_entries(), 0u);
}

// --- Positioned-read sources ---------------------------------------------

/// Span source that logs every (offset, n) it serves; safe under the
/// concurrent reads of DecompressRange's workers.
class CountingSource final : public ReadSource {
 public:
  explicit CountingSource(ByteSpan bytes) : inner_(bytes) {}
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  [[nodiscard]] ByteSpan ReadAt(std::uint64_t offset, std::size_t n,
                                ByteBuffer& scratch) const override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      reads_.emplace_back(offset, n);
    }
    return inner_.ReadAt(offset, n, scratch);
  }
  /// The reads so far, sorted by offset; clears the log.
  std::vector<std::pair<std::uint64_t, std::size_t>> Take() {
    const std::lock_guard<std::mutex> lock(mu_);
    auto out = std::move(reads_);
    reads_.clear();
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  SpanSource inner_;
  mutable std::mutex mu_;
  mutable std::vector<std::pair<std::uint64_t, std::size_t>> reads_;
};

TEST(ContainerSource, RoiReadsHeaderDirectoryAndCoveredChunksOnly) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 20000, 31);
  const ByteBuffer c = PackOneField<float>(data, 2, 1024);
  ContainerHeader h;
  ByteCursor(c).ReadBytes(&h, sizeof(h));
  CountingSource src(c);
  const ContainerReader r(src);
  using Reads = std::vector<std::pair<std::uint64_t, std::size_t>>;
  EXPECT_EQ(src.Take(),
            (Reads{{0, sizeof(ContainerHeader)},
                   {h.directory_offset,
                    static_cast<std::size_t>(h.directory_bytes)}}));
  // Elements [3000, 5100) of timestep 1 lie in chunks 2..4.
  std::vector<float> roi(2100);
  r.DecompressRange<float>(0, 1, 3000, std::span<float>(roi), 3);
  Reads want;
  for (std::uint64_t chunk = 2; chunk <= 4; ++chunk) {
    const ContainerChunkEntry& e = r.entry(r.EntryIndex(0, 1, chunk));
    want.emplace_back(e.offset, static_cast<std::size_t>(e.bytes));
  }
  EXPECT_EQ(src.Take(), want);
  // The same reader over the span decodes the same values.
  const ContainerReader span_reader(c);
  std::vector<float> ref(roi.size());
  span_reader.DecompressRange<float>(0, 1, 3000, std::span<float>(ref));
  EXPECT_EQ(roi, ref);
}

TEST(ContainerSource, ForgedDirectoryLengthIsRefusedBeforeTheRead) {
  const auto data = MakePattern<float>(Pattern::kRamp, 4000, 32);
  ByteBuffer c = PackOneField<float>(data, 1, 1024);
  ContainerHeader h;
  ByteCursor(c).ReadBytes(&h, sizeof(h));
  h.directory_bytes += std::uint64_t{1} << 40;  // far past the source's end
  ByteBuffer forged;
  ByteWriter(forged).Write(h);
  forged.insert(forged.end(),
                c.begin() + static_cast<std::ptrdiff_t>(sizeof(h)), c.end());
  CountingSource src(forged);
  EXPECT_THROW(ContainerReader r(src), Error);
  using Reads = std::vector<std::pair<std::uint64_t, std::size_t>>;
  EXPECT_EQ(src.Take(), (Reads{{0, sizeof(ContainerHeader)}}));
}

/// Decodes [first, first + count) of (field, ts) through `r`; an Error
/// (damaged chunk) yields nullopt so damaged goldens compare outcomes too.
template <typename T>
std::optional<std::vector<T>> TryRange(const ContainerReader& r,
                                       std::uint32_t field, std::uint64_t ts,
                                       std::uint64_t first,
                                       std::uint64_t count, int threads) {
  std::vector<T> out(static_cast<std::size_t>(count));
  try {
    r.DecompressRange<T>(field, ts, first, std::span<T>(out), threads);
  } catch (const Error&) {
    return std::nullopt;
  }
  return out;
}

template <typename T>
void ExpectFileMatchesSpan(const ContainerReader& file_reader,
                           const ContainerReader& span_reader,
                           std::uint32_t field, const std::string& name) {
  const ContainerField& f = span_reader.field(field);
  const std::uint64_t ce = f.chunk_elements;
  const std::uint64_t n = f.elements_per_timestep;
  // (first, count): the whole timestep, ROIs starting and ending on chunk
  // edges, one straddling an edge, and the (ragged when n % ce != 0) last
  // chunk on its own.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rois = {
      {0, n}, {0, std::min(ce, n)}, {n - (n - 1) % ce - 1, (n - 1) % ce + 1},
      {n - 1, 1}};
  if (n > ce) {
    rois.emplace_back(ce, std::min(ce, n - ce));
    rois.emplace_back(ce - 1, 2);
  }
  for (std::uint64_t ts = 0; ts < f.timesteps; ++ts) {
    for (const auto& [first, count] : rois) {
      for (const int threads : {1, 4}) {
        const auto a = TryRange<T>(file_reader, field, ts, first, count,
                                   threads);
        const auto b = TryRange<T>(span_reader, field, ts, first, count,
                                   threads);
        ASSERT_EQ(a.has_value(), b.has_value())
            << name << " field " << field << " ts " << ts << " first "
            << first << " count " << count;
        if (a.has_value()) {
          // Bitwise: the values may be NaN.
          ASSERT_EQ(std::memcmp(a->data(), b->data(), a->size() * sizeof(T)),
                    0)
              << name << " field " << field << " ts " << ts << " first "
              << first << " count " << count;
        }
      }
    }
  }
}

TEST(ContainerSource, FileSourceMatchesSpanOnEveryGoldenContainer) {
  int containers = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SZX_GOLDEN_DIR)) {
    if (entry.path().extension() != ".szx3") continue;
    ++containers;
    const std::string path = entry.path().string();
    const iosim::FileSource file(path);
    ByteBuffer bytes(static_cast<std::size_t>(file.size()));
    file.ReadInto(0, bytes);
    const ContainerReader file_reader(file);
    const ContainerReader span_reader(bytes);
    ASSERT_EQ(file_reader.num_fields(), span_reader.num_fields()) << path;
    ASSERT_EQ(file_reader.num_entries(), span_reader.num_entries()) << path;
    for (std::uint64_t e = 0; e < span_reader.num_entries(); ++e) {
      EXPECT_EQ(file_reader.VerifyChunk(e), span_reader.VerifyChunk(e))
          << path << " entry " << e;
    }
    for (std::uint32_t i = 0; i < span_reader.num_fields(); ++i) {
      if (span_reader.field(i).dtype == DataType::kFloat32) {
        ExpectFileMatchesSpan<float>(file_reader, span_reader, i, path);
      } else {
        ExpectFileMatchesSpan<double>(file_reader, span_reader, i, path);
      }
    }
  }
  EXPECT_GE(containers, 5);  // three clean goldens + two damaged cases
}

}  // namespace
}  // namespace szx
