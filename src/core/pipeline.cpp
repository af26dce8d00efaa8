#include "core/pipeline.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/executor.hpp"

namespace szx {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

template <SupportedFloat T>
PipelineResult CompressChunksPipelined(StreamWriter<T>& writer,
                                       const ChunkReadFn<T>& read_chunk,
                                       std::size_t chunk_elems,
                                       bool overlap) {
  if (chunk_elems == 0) {
    throw Error("CompressChunksPipelined: chunk_elems must be > 0");
  }
  PipelineResult result;

  const auto wall_begin = Clock::now();
  std::vector<T> front(chunk_elems);  // being compressed
  std::vector<T> back(chunk_elems);   // being (pre)fetched

  // Timed read into `back`; single-threaded at any instant, so the plain
  // members need no synchronization (the Batch join orders them):
  // `back`, `back_filled`, and result.read_s are written by at most one
  // thread between Submit and Wait, and Batch::Wait's acquire on
  // unfinished_ (see executor.cpp FinishSlice) publishes the prefetch's
  // writes before this thread swaps buffers.
  std::size_t back_filled SZX_SYNCHRONIZED_BY(prefetch_batch_join) = 0;
  auto fetch_back = [&] {
    const auto t0 = Clock::now();
    back_filled = read_chunk(std::span<T>(back));
    result.read_s += Seconds(t0, Clock::now());
  };

  // Prime the pipeline with a synchronous first read.
  fetch_back();
  while (back_filled > 0) {
    std::swap(front, back);
    const std::size_t front_filled = back_filled;
    back_filled = 0;

    if (overlap) {
      // Prefetch chunk N+1 on the pool while this thread encodes chunk N.
      exec::Executor::Batch prefetch;
      exec::Executor::Default().Submit(
          prefetch, 1,
          [](void* ctx, std::uint64_t) { (*static_cast<decltype(fetch_back)*>(ctx))(); },
          &fetch_back);
      try {
        const auto t0 = Clock::now();
        writer.Append(std::span<const T>(front.data(), front_filled));
        result.compress_s += Seconds(t0, Clock::now());
      } catch (...) {
        prefetch.Wait();  // join the in-flight read before unwinding
        throw;
      }
      prefetch.Wait();
    } else {
      const auto t0 = Clock::now();
      writer.Append(std::span<const T>(front.data(), front_filled));
      result.compress_s += Seconds(t0, Clock::now());
      fetch_back();
    }
    ++result.chunks;
    result.elements += front_filled;
  }
  result.wall_s = Seconds(wall_begin, Clock::now());
  return result;
}

template PipelineResult CompressChunksPipelined<float>(
    StreamWriter<float>&, const ChunkReadFn<float>&, std::size_t, bool);
template PipelineResult CompressChunksPipelined<double>(
    StreamWriter<double>&, const ChunkReadFn<double>&, std::size_t, bool);

}  // namespace szx
