// Chunk-parallel encoder/decoder.  Parallelism is delegated to the
// exec::ParallelFor facade over the work-stealing pool; the facade owns the
// exception latch, so the chunk loops below are plain lambdas.  The entry
// points keep the paper's *Omp names, and every byte they produce is
// identical to the serial codec for any chunk count (fragments are
// contiguous block ranges from the shared range encoder, stitched at
// offsets fixed by exclusive prefix sums).
#include "core/omp_codec.hpp"

#include <algorithm>

#include "core/arena.hpp"
#include "core/block_plan.hpp"
#include "core/block_range.hpp"
#include "core/executor.hpp"
#include "core/frame_index.hpp"
#include "core/integrity.hpp"

namespace szx {

std::vector<std::uint64_t> PrefixSumZsizes(ByteSpan zsize_section,
                                           std::uint64_t count) {
  if (zsize_section.size() / 2 < count) {
    throw Error("szx: zsize section shorter than block count");
  }
  std::vector<std::uint64_t> offsets(count + 1);
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    offsets[i] = acc;
    acc += LoadAt<std::uint16_t>(zsize_section, i);
  }
  offsets[count] = acc;
  return offsets;
}

namespace {

// Clamps the requested width so every chunk spans at least 8 blocks
// (byte-aligned type bits) and returns the resulting chunk count.
std::uint64_t ClampChunks(int& threads, std::uint64_t num_blocks) {
  const std::uint64_t max_useful =
      num_blocks == 0 ? 1 : (num_blocks + 7) / 8;
  if (static_cast<std::uint64_t>(threads) > max_useful) {
    threads = static_cast<int>(max_useful);
  }
  return static_cast<std::uint64_t>(threads);
}

}  // namespace

template <SupportedFloat T>
ByteBuffer CompressOmp(std::span<const T> data, const Params& params,
                       CompressionStats* stats, int num_threads) {
  params.Validate();
  const double abs_bound = ResolveAbsoluteBound(data, params);
  const std::uint64_t n = data.size();
  const std::uint32_t bs = params.block_size;
  const std::uint64_t num_blocks = n == 0 ? 0 : (n + bs - 1) / bs;
  const int eb_expo = params.mode == ErrorBoundMode::kPointwiseRelative
                          ? kLosslessEbExpo
                          : BoundExponent(abs_bound);

  int threads = exec::ResolveThreads(num_threads);
  const std::uint64_t chunks = ClampChunks(threads, num_blocks);
  // Chunk boundaries in blocks, rounded to multiples of 8.
  // szx-lint: allow(unchecked-alloc) -- num_blocks is the fill value, not the size; the vector holds one bound per encoder chunk
  std::vector<std::uint64_t> bounds(chunks + 1, num_blocks);
  bounds[0] = 0;
  for (std::uint64_t c = 1; c < chunks; ++c) {
    std::uint64_t b = num_blocks * c / chunks;
    b = (b + 7) / 8 * 8;
    bounds[c] = std::min(b, num_blocks);
  }

  // One arena per chunk, owned (thread-locally) by the calling thread so the
  // fragment memory outlives the parallel region regardless of which worker
  // ran it.  Each chunk index is executed by exactly one thread per region,
  // so no arena is ever shared within a region, and the vector's high-water
  // capacity is reused across calls.
  thread_local std::vector<ScratchArena> arenas_tls;
  if (arenas_tls.size() < chunks) arenas_tls.resize(chunks);
  // Grab the caller's arenas by pointer before the parallel region: a
  // thread_local name evaluated inside it would resolve to each worker's own
  // (empty) instance instead.
  ScratchArena* const arenas = arenas_tls.data();
  std::vector<SectionFragment<T>> frags(chunks);
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    if (bounds[c] < bounds[c + 1]) {
      CompressBlockRange(data, params, abs_bound, eb_expo, bounds[c],
                         bounds[c + 1], arenas[c], frags[c]);
    }
  });

  // Exclusive prefix sums over the fragment sizes: every chunk's landing
  // offset in each of the six sections is known before a byte moves, so the
  // stitch below is a fully parallel scatter with zero serialization.
  struct StitchOffsets {
    std::size_t type_bits = 0, const_mu = 0, req = 0, mu = 0, zsize = 0,
                payload = 0;
  };
  std::vector<StitchOffsets> at(chunks);
  std::uint64_t num_constant = 0;
  std::uint64_t num_lossless = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t const_mu_bytes = 0, req_bytes = 0, ncb_mu_bytes = 0,
              zsize_bytes = 0;
  {
    StitchOffsets acc;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const SectionFragment<T>& f = frags[c];
      at[c] = acc;
      acc.type_bits += f.type_bits.size();
      acc.const_mu += f.const_mu_n;
      acc.req += f.ncb_n;
      acc.mu += f.ncb_n * sizeof(T);
      acc.zsize += f.ncb_n * 2;
      acc.payload += f.payload_n;
      num_constant += f.num_constant;
      num_lossless += f.num_lossless;
    }
    payload_bytes = acc.payload;
    const_mu_bytes = acc.const_mu;
    req_bytes = acc.req;
    ncb_mu_bytes = acc.mu;
    zsize_bytes = acc.zsize;
  }

  Header h;
  h.dtype = static_cast<std::uint8_t>(FloatTraits<T>::kTag);
  h.eb_mode = static_cast<std::uint8_t>(params.mode);
  h.solution = static_cast<std::uint8_t>(params.solution);
  h.block_size = bs;
  h.error_bound_user = params.error_bound;
  h.error_bound_abs = abs_bound;
  h.num_elements = n;
  h.num_blocks = num_blocks;
  h.num_constant = num_constant;
  h.payload_bytes = payload_bytes;

  const std::size_t type_bytes = (num_blocks + 7) / 8;
  const std::size_t total = sizeof(Header) + type_bytes + const_mu_bytes +
                            req_bytes + ncb_mu_bytes + zsize_bytes +
                            payload_bytes;

  ByteBuffer out;
  if (total >= sizeof(Header) + data.size_bytes() && n > 0) {
    // Raw passthrough must match the serial compressor byte for byte.
    return Compress(data, params, stats);
  }
  out.resize(total);
  StoreWord<Header>(out.data(), h);
  // Section start offsets within the stitched stream.
  const std::size_t type_base = sizeof(Header);
  const std::size_t const_base = type_base + type_bytes;
  const std::size_t req_base = const_base + const_mu_bytes;
  const std::size_t mu_base = req_base + req_bytes;
  const std::size_t zsize_base = mu_base + ncb_mu_bytes;
  const std::size_t payload_base = zsize_base + zsize_bytes;
  // Parallel stitch: chunk c copies each section's live prefix to its
  // precomputed offset.  Destination ranges are disjoint by construction
  // (exclusive prefix sums above), so no synchronization is needed.
  std::byte* const dst = out.data();
  const SectionFragment<T>* const fr = frags.data();
  const StitchOffsets* const ofs = at.data();
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    const SectionFragment<T>& f = fr[c];
    const StitchOffsets& o = ofs[c];
    std::copy_n(f.type_bits.data(), f.type_bits.size(),
                dst + type_base + o.type_bits);
    std::copy_n(f.const_mu.data(), f.const_mu_n,
                dst + const_base + o.const_mu);
    std::copy_n(f.ncb_req.data(), f.ncb_n, dst + req_base + o.req);
    std::copy_n(f.ncb_mu.data(), f.ncb_n * sizeof(T), dst + mu_base + o.mu);
    std::copy_n(f.ncb_zsize.data(), f.ncb_n * 2, dst + zsize_base + o.zsize);
    std::copy_n(f.payload.data(), f.payload_n, dst + payload_base + o.payload);
  });

  // Footer append happens after the parallel stitch so the checksums cover
  // the final bytes; byte identity with the serial encoder is preserved
  // because the v1 body above is already identical.
  if (params.integrity) AppendIntegrityFooter(out);

  if (stats != nullptr) {
    stats->num_elements = n;
    stats->num_blocks = num_blocks;
    stats->num_constant_blocks = num_constant;
    stats->num_lossless_blocks = num_lossless;
    stats->payload_bytes = payload_bytes;
    stats->compressed_bytes = out.size();
    stats->absolute_bound = abs_bound;
  }
  return out;
}

template <SupportedFloat T>
void DecompressOmpInto(ByteSpan stream, std::span<T> out, int num_threads) {
  const Sections<T> s = ParseSections<T>(stream);
  const Header& h = s.header;
  if (h.dtype != static_cast<std::uint8_t>(FloatTraits<T>::kTag)) {
    throw Error("szx: stream element type mismatch");
  }
  if (out.size() != h.num_elements) {
    throw Error("szx: output buffer size mismatch");
  }
  if (h.flags & kFlagRawPassthrough) {
    ByteCursor(s.payload).ReadSpan(out);
    return;
  }
  const auto solution = static_cast<CommitSolution>(h.solution);
  const std::uint64_t nnc = h.num_blocks - h.num_constant;

  int threads = exec::ResolveThreads(num_threads);
  const std::uint64_t max_useful = MaxUsefulChunks(h.num_blocks);
  if (static_cast<std::uint64_t>(threads) > max_useful) {
    threads = static_cast<int>(max_useful);
  }
  const std::uint64_t chunks = static_cast<std::uint64_t>(threads);

  // Chunk directory, O(threads) instead of the old O(num_blocks)
  // meta-index; the thread_local vector keeps steady-state decode calls off
  // the heap (same discipline as the encoder's arena vector).  Captured by
  // pointer before the parallel regions — inside one the name would resolve
  // to each worker's own empty instance.
  thread_local std::vector<ChunkRef> chunks_tls;
  if (chunks_tls.size() < chunks) chunks_tls.resize(chunks);
  const std::span<ChunkRef> dir(chunks_tls.data(),
                                static_cast<std::size_t>(chunks));
  ChunkRef* const cd = dir.data();
  SetChunkBounds(h.num_blocks, dir);

  // Directory pass 1: per-chunk type-bit popcounts (disjoint byte ranges),
  // then a serial O(chunks) exclusive prefix sum + total validation.
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    cd[c].ncb_base =
        CountNonConstant(s.type_bits, cd[c].first_block, cd[c].last_block);
  });
  FinalizeTypeTallies(h, dir);

  // Directory pass 2: per-chunk zsize sums over disjoint non-constant index
  // ranges, then the payload prefix sum + total validation.  The facade
  // latches the first exception and rethrows it after every chunk ran.
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    const std::uint64_t next =
        c + 1 < chunks ? cd[c + 1].ncb_base : nnc;
    cd[c].payload_base =
        SumZsizes(s.ncb_zsize, cd[c].ncb_base, next - cd[c].ncb_base);
  });
  FinalizePayloadTallies(h, dir);

  // Decode chunks concurrently: every thread writes its blocks into `out`
  // at offsets precomputed by the directory — zero serialization and zero
  // shared mutable state.
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    DecodeChunkInto(s, solution, cd[c], out);
  });
}

template <SupportedFloat T>
std::vector<T> DecompressOmp(ByteSpan stream, int num_threads) {
  // Same allocation guard as serial Decompress: validate section extents
  // (which bound num_elements by the stream size) before sizing the output.
  const Sections<T> s = ParseSections<T>(stream);
  std::vector<T> out(ByteCursor(stream).CheckedAlloc(s.header.num_elements,
                                                     sizeof(T),
                                                     kMaxBlockSize));
  DecompressOmpInto<T>(stream, std::span<T>(out), num_threads);
  return out;
}

template ByteBuffer CompressOmp<float>(std::span<const float>, const Params&,
                                       CompressionStats*, int);
template ByteBuffer CompressOmp<double>(std::span<const double>,
                                        const Params&, CompressionStats*,
                                        int);
template void DecompressOmpInto<float>(ByteSpan, std::span<float>, int);
template void DecompressOmpInto<double>(ByteSpan, std::span<double>, int);
template std::vector<float> DecompressOmp<float>(ByteSpan, int);
template std::vector<double> DecompressOmp<double>(ByteSpan, int);

}  // namespace szx
