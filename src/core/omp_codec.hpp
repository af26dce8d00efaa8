// Chunk-parallel SZx codec (paper Sec. 6.1).
//
// Compression assigns contiguous ranges of blocks to threads; each thread
// emits private section fragments that are concatenated afterwards (ranges
// are multiples of 8 blocks so the type bit array concatenates bytewise).
// Decompression resolves per-block payload offsets with a prefix sum over
// the zsize array, then decodes all blocks in parallel.
//
// Parallelism runs on the exec::ParallelFor facade over the persistent
// work-stealing pool (see core/executor.hpp).  The *Omp names follow the
// paper's omp-SZx; no other threading runtime is involved.
//
// Streams produced by CompressOmp are byte-identical to serial Compress
// output for every thread count, and either decompressor accepts either
// stream.
#pragma once

#include <span>
#include <vector>

#include "core/compressor.hpp"

namespace szx {

/// `num_threads == 0` uses the executor default width (SZX_THREADS, then
/// hardware concurrency).
template <SupportedFloat T>
[[nodiscard]] ByteBuffer CompressOmp(std::span<const T> data, const Params& params,
                       CompressionStats* stats = nullptr,
                       int num_threads = 0);

template <SupportedFloat T>
void DecompressOmpInto(ByteSpan stream, std::span<T> out,
                       int num_threads = 0);

template <SupportedFloat T>
[[nodiscard]] std::vector<T> DecompressOmp(ByteSpan stream, int num_threads = 0);

/// Exclusive prefix sum of the per-block compressed sizes; element i is the
/// payload offset of non-constant block i and the final element the total.
/// Exposed for tests and the cusim layer.
[[nodiscard]] std::vector<std::uint64_t> PrefixSumZsizes(
    ByteSpan zsize_section, std::uint64_t count);

}  // namespace szx
