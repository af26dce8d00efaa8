// Double-buffered pipeline correctness: the overlapped path must produce a
// container byte-identical to a plain read-then-append loop, account for
// every chunk and element exactly once, and propagate
// reader/codec failures after joining the in-flight prefetch.  The
// real-file leg runs the same contract through iosim's ChunkFileReader,
// including transient read faults absorbed by its bounded retry.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/streaming.hpp"
#include "iosim/file_backend.hpp"

namespace szx {
namespace {

Params TestParams() {
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  p.block_size = 64;
  return p;
}

std::vector<float> MakeSignal(std::size_t n, std::uint64_t seed) {
  std::vector<float> data(n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> noise(-0.05F, 0.05F);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::sin(static_cast<float>(i) * 0.01F) + noise(rng);
  }
  return data;
}

/// Reference container: the plain sequential loop the pipeline must match.
ByteBuffer SequentialContainer(const std::vector<float>& data,
                               std::size_t chunk_elems) {
  StreamWriter<float> writer(TestParams());
  for (std::size_t pos = 0; pos < data.size(); pos += chunk_elems) {
    const std::size_t n = std::min(chunk_elems, data.size() - pos);
    writer.Append(std::span<const float>(data).subspan(pos, n));
  }
  return std::move(writer).Finish();
}

/// Pull-callback over an in-memory vector.
ChunkReadFn<float> VectorSource(const std::vector<float>& data,
                                std::size_t* cursor) {
  return [&data, cursor](std::span<float> buf) {
    const std::size_t n = std::min(buf.size(), data.size() - *cursor);
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(*cursor), n,
                buf.begin());
    *cursor += n;
    return n;
  };
}

std::string TempPath(const char* tag) {
  return testing::TempDir() + "szx_pipeline_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

TEST(Pipeline, ByteIdenticalToSequentialLoop) {
  const auto data = MakeSignal(10'000, 42);
  const std::size_t chunk_elems = 768;  // last chunk partial
  const ByteBuffer reference = SequentialContainer(data, chunk_elems);

  for (const bool overlap : {true, false}) {
    SCOPED_TRACE(overlap ? "overlap" : "sequential");
    StreamWriter<float> writer(TestParams());
    std::size_t cursor = 0;
    const PipelineResult r = CompressChunksPipelined<float>(
        writer, VectorSource(data, &cursor), chunk_elems, overlap);
    EXPECT_EQ(r.chunks, (data.size() + chunk_elems - 1) / chunk_elems);
    EXPECT_EQ(r.elements, data.size());
    const ByteBuffer got = std::move(writer).Finish();
    ASSERT_EQ(got.size(), reference.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), reference.begin()));
  }
}

TEST(Pipeline, DecodesBackToWithinBound) {
  const auto data = MakeSignal(4'096, 7);
  StreamWriter<float> writer(TestParams());
  std::size_t cursor = 0;
  CompressChunksPipelined<float>(writer, VectorSource(data, &cursor), 512);
  const ByteBuffer container = std::move(writer).Finish();

  StreamReader<float> reader(container);
  std::vector<float> frame;
  std::size_t pos = 0;
  while (reader.Next(frame)) {
    for (const float v : frame) {
      ASSERT_LT(pos, data.size());
      EXPECT_NEAR(v, data[pos], 1e-3 + 1e-6);
      ++pos;
    }
  }
  EXPECT_EQ(pos, data.size());
}

TEST(Pipeline, ZeroChunkElemsThrows) {
  StreamWriter<float> writer(TestParams());
  const ChunkReadFn<float> never = [](std::span<float>) -> std::size_t {
    ADD_FAILURE() << "reader must not be called";
    return 0;
  };
  EXPECT_THROW(CompressChunksPipelined<float>(writer, never, 0), Error);
}

TEST(Pipeline, EmptySourceProducesEmptyContainer) {
  StreamWriter<float> writer(TestParams());
  const ChunkReadFn<float> empty = [](std::span<float>) -> std::size_t {
    return 0;
  };
  const PipelineResult r = CompressChunksPipelined<float>(writer, empty, 128);
  EXPECT_EQ(r.chunks, 0U);
  EXPECT_EQ(r.elements, 0U);
  const ByteBuffer container = std::move(writer).Finish();
  StreamReader<float> reader(container);
  std::vector<float> frame;
  EXPECT_FALSE(reader.Next(frame));
}

TEST(Pipeline, ReaderExceptionPropagatesInBothModes) {
  for (const bool overlap : {true, false}) {
    SCOPED_TRACE(overlap ? "overlap" : "sequential");
    StreamWriter<float> writer(TestParams());
    int calls = 0;
    const ChunkReadFn<float> failing =
        [&calls](std::span<float> buf) -> std::size_t {
      if (++calls >= 3) {
        throw std::runtime_error("simulated source failure");
      }
      std::fill(buf.begin(), buf.end(), 1.5F);
      return buf.size();
    };
    EXPECT_THROW(
        CompressChunksPipelined<float>(writer, failing, 256, overlap),
        std::runtime_error);
  }
}

/// End-to-end through the real-file backend: raw floats staged to disk by
/// ChunkFileWriter, pulled back by ChunkFileReader inside the pipeline,
/// with transient read faults absorbed by the reader's retry loop.  The
/// container must still match the all-in-memory sequential reference.
TEST(Pipeline, FileBackedSourceWithTransientFaultsMatchesReference) {
  const auto data = MakeSignal(6'000, 99);
  const std::size_t chunk_elems = 1'000;
  const ByteBuffer reference = SequentialContainer(data, chunk_elems);
  const std::string path = TempPath("source");

  {
    iosim::ChunkFileWriter out(path);
    // szx-lint: allow(reinterpret-cast) -- staging raw floats to the test file
    const auto* bytes = reinterpret_cast<const std::byte*>(data.data());
    out.WriteChunk(std::span<const std::byte>(bytes,
                                              data.size() * sizeof(float)));
    out.Close();
  }

  iosim::TransientReadFaults faults;
  faults.period = 2;  // every 2nd chunk read fails once, then succeeds
  faults.max_attempts = 3;
  iosim::ChunkFileReader in(path, faults);
  const ChunkReadFn<float> file_source =
      [&in](std::span<float> buf) -> std::size_t {
    // szx-lint: allow(reinterpret-cast) -- file bytes are exactly the floats staged above
    auto* bytes = reinterpret_cast<std::byte*>(buf.data());
    const std::size_t got = in.ReadChunk(
        std::span<std::byte>(bytes, buf.size() * sizeof(float)));
    EXPECT_EQ(got % sizeof(float), 0U);
    return got / sizeof(float);
  };

  StreamWriter<float> writer(TestParams());
  const PipelineResult r =
      CompressChunksPipelined<float>(writer, file_source, chunk_elems);
  EXPECT_EQ(r.chunks, 6U);
  EXPECT_EQ(r.elements, data.size());

  const ByteBuffer got = std::move(writer).Finish();
  ASSERT_EQ(got.size(), reference.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), reference.begin()));

  // Retries happened and chunks were neither lost nor duplicated: the
  // reader saw 6 data chunks + 1 EOF probe, retrying the faulted ones.
  EXPECT_EQ(in.stats().chunks, 6U);
  EXPECT_EQ(in.stats().bytes, data.size() * sizeof(float));
  EXPECT_EQ(in.stats().retries, 3U);  // chunks 2, 4, 6 each retried once
  EXPECT_EQ(in.stats().attempts, in.stats().chunks + in.stats().retries + 1);

  std::remove(path.c_str());
}

TEST(Pipeline, AccountingCoversWallClock) {
  const auto data = MakeSignal(8'192, 3);
  StreamWriter<float> writer(TestParams());
  std::size_t cursor = 0;
  const PipelineResult r = CompressChunksPipelined<float>(
      writer, VectorSource(data, &cursor), 1'024);
  EXPECT_GE(r.read_s, 0.0);
  EXPECT_GE(r.compress_s, 0.0);
  EXPECT_GT(r.wall_s, 0.0);
  (void)std::move(writer).Finish();
}

}  // namespace
}  // namespace szx
