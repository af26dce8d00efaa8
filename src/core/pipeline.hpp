// Double-buffered streaming compression: stage N's encode overlaps stage
// N+1's read, the coarse-grained chunk pipelining the paper's Fig. 16
// overlap model assumes (and cuSZ demonstrates for compression overlapped
// with data movement).
//
// The producer side is a pull callback so the pipeline stays agnostic of
// where chunks come from (a file via iosim::ChunkFileReader, a socket, a
// simulation buffer).  While the caller's thread compresses chunk N through
// StreamWriter::Append, a one-task Batch on the default Executor reads
// chunk N+1 into the shadow buffer; the buffers then swap.  Frames are
// appended in arrival order on a single thread, so the finished container
// is byte-identical to a plain read-then-append loop -- the determinism
// battery holds pipelined output to that contract.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "core/streaming.hpp"

namespace szx {

/// Per-stage accounting for one pipelined run.  With overlap active,
/// read_s + compress_s can exceed wall_s -- that surplus is the hidden I/O
/// the serial-sum model (iosim SimulateDump) would have paid.
struct PipelineResult {
  std::uint64_t chunks = 0;    ///< frames appended
  std::uint64_t elements = 0;  ///< total elements compressed
  double read_s = 0.0;         ///< summed time inside the read callback
  double compress_s = 0.0;     ///< summed time inside Append
  double wall_s = 0.0;         ///< end-to-end makespan
};

/// Pulls the next chunk: fill up to `buf.size()` elements, return how many
/// were produced.  Returning 0 ends the stream.  Called once per chunk,
/// never concurrently with itself.
template <SupportedFloat T>
using ChunkReadFn = std::function<std::size_t(std::span<T> buf)>;

/// Streams chunks of `chunk_elems` elements from `read_chunk` into
/// `writer`.  When `overlap` is true, the next read runs on the executor
/// while the current chunk compresses;
/// otherwise the loop is sequential.  Either way the container bytes are
/// identical.  Exceptions from the callback or the codec propagate (the
/// in-flight prefetch is joined first).
template <SupportedFloat T>
PipelineResult CompressChunksPipelined(StreamWriter<T>& writer,
                                       const ChunkReadFn<T>& read_chunk,
                                       std::size_t chunk_elems,
                                       bool overlap = true);

}  // namespace szx
