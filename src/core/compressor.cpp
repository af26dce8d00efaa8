#include "core/compressor.hpp"

#include <algorithm>
#include <cmath>

#include "core/block_plan.hpp"
#include "core/block_range.hpp"
#include "core/block_stats.hpp"
#include "core/frame_index.hpp"
#include "core/integrity.hpp"

namespace szx {

void Params::Validate() const {
  if (!(error_bound > 0.0) || !std::isfinite(error_bound)) {
    throw Error("szx: error bound must be finite and > 0");
  }
  if (block_size < kMinBlockSize || block_size > kMaxBlockSize) {
    throw Error("szx: block size must be in [" +
                std::to_string(kMinBlockSize) + ", " +
                std::to_string(kMaxBlockSize) + "]");
  }
}

template <SupportedFloat T>
double ResolveAbsoluteBound(std::span<const T> data, const Params& params) {
  params.Validate();
  if (params.mode == ErrorBoundMode::kAbsolute) {
    return params.error_bound;
  }
  if (params.mode == ErrorBoundMode::kPointwiseRelative) {
    // No single absolute bound exists: it is eb * |d| per point.
    return 0.0;
  }
  const GlobalRange<T> r = ComputeGlobalRange(data);
  if (!r.any_finite) return 0.0;
  return params.error_bound *
         (static_cast<double>(r.max) - static_cast<double>(r.min));
}

template <SupportedFloat T>
ByteSpan CompressInto(std::span<const T> data, const Params& params,
                      ScratchArena& arena, CompressionStats* stats) {
  const double abs_bound = ResolveAbsoluteBound(data, params);
  const std::uint64_t n = data.size();
  const std::uint32_t bs = params.block_size;
  const std::uint64_t num_blocks = n == 0 ? 0 : (n + bs - 1) / bs;
  const int eb_expo = params.mode == ErrorBoundMode::kPointwiseRelative
                          ? kLosslessEbExpo
                          : BoundExponent(abs_bound);

  // One range over every block.  This resets the arena, invalidating
  // anything the caller kept from the last call; the frame below is carved
  // from the same arena after the section fragments.
  SectionFragment<T> f;
  CompressBlockRange(data, params, abs_bound, eb_expo, 0, num_blocks, arena,
                     f);
  const std::uint64_t num_constant = f.num_constant;
  const std::size_t const_mu_n = f.const_mu_n;
  const std::size_t ncb_n = f.ncb_n;
  const std::size_t payload_n = f.payload_n;

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
  h.payload_bytes = payload_n;

  const std::size_t total = sizeof(Header) + f.type_bits.size() + const_mu_n +
                            ncb_n + ncb_n * sizeof(T) + ncb_n * 2 + payload_n;

  // The raw-passthrough decision compares the v1 body sizes only, so an
  // integrity-enabled stream is always its v1 twin plus two patched header
  // bytes and the appended footer -- never a different encoding.
  const bool raw_passthrough =
      total >= sizeof(Header) + data.size_bytes() && n > 0;
  std::uint32_t footer_chunks = 0;
  std::size_t footer_bytes = 0;
  if (params.integrity) {
    Header probe = h;
    if (raw_passthrough) probe.flags = kFlagRawPassthrough;
    footer_chunks = IntegrityChunkCount(probe);
    footer_bytes = IntegrityFooterBytes(footer_chunks);
  }
  const std::size_t body_bytes =
      raw_passthrough ? sizeof(Header) + data.size_bytes() : total;

  const std::span<std::byte> out =
      arena.AllocateSpan<std::byte>(body_bytes + footer_bytes);
  const std::span<std::byte> body = out.first(body_bytes);
  if (raw_passthrough) {
    // Raw passthrough: the encoded frame would not beat the input.
    Header raw = h;
    raw.flags = kFlagRawPassthrough;
    raw.num_constant = 0;
    raw.payload_bytes = 0;
    StoreWord<Header>(body.data(), raw);
    // szx-lint: allow(reinterpret-cast) -- viewing the caller's float array as bytes for the passthrough copy, the inverse of ByteCursor::ReadSpan
    const std::byte* src = reinterpret_cast<const std::byte*>(data.data());
    // szx-lint: allow(ptr-arith) -- body cursor of the passthrough frame allocated at sizeof(Header)+data bytes above
    std::copy_n(src, data.size_bytes(), body.data() + sizeof(Header));
  } else {
    std::byte* at = body.data();
    StoreWord<Header>(at, h);
    at += sizeof(Header);
    at = std::copy_n(f.type_bits.data(), f.type_bits.size(), at);
    at = std::copy_n(f.const_mu.data(), const_mu_n, at);
    at = std::copy_n(f.ncb_req.data(), ncb_n, at);
    at = std::copy_n(f.ncb_mu.data(), ncb_n * sizeof(T), at);
    at = std::copy_n(f.ncb_zsize.data(), ncb_n * 2, at);
    std::copy_n(f.payload.data(), payload_n, at);
  }
  if (params.integrity) {
    // Upgrade the body to v2 in place, then checksum it into the footer.
    body[4] = std::byte{kFormatVersionIntegrity};
    body[8] |= std::byte{kFlagIntegrity};
    const std::span<ChunkRef> chunk_scratch =
        arena.AllocateSpan<ChunkRef>(footer_chunks);
    WriteIntegrityFooter<T>(ByteSpan(body), chunk_scratch,
                            out.subspan(body_bytes));
  }

  if (stats != nullptr) {
    stats->num_elements = n;
    stats->num_blocks = num_blocks;
    stats->num_constant_blocks = num_constant;
    stats->num_lossless_blocks = f.num_lossless;
    stats->payload_bytes = payload_n;
    stats->compressed_bytes = out.size();
    stats->absolute_bound = abs_bound;
  }
  return out;
}

template <SupportedFloat T>
ByteBuffer Compress(std::span<const T> data, const Params& params,
                    CompressionStats* stats) {
  // Per-thread scratch private to this entry point, so callers that manage
  // their own arenas can never be invalidated by a convenience-API call.
  thread_local ScratchArena arena;
  const ByteSpan frame = CompressInto(data, params, arena, stats);
  return ByteBuffer(frame.begin(), frame.end());
}

Header PeekHeader(ByteSpan stream) { return ParseHeader(stream); }

template <SupportedFloat T>
void DecompressInto(ByteSpan stream, std::span<T> out) {
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
  // One bounds-checked directory pass (shared with the parallel decoder)
  // validates the type-bit and zsize sections against the header before any
  // block is decoded, then the chunk decode core walks the whole frame.
  ChunkRef whole;
  BuildChunkRefs(s, std::span<ChunkRef>(&whole, 1));
  DecodeChunkInto(s, static_cast<CommitSolution>(h.solution), whole, out);
}

template <SupportedFloat T>
std::vector<T> Decompress(ByteSpan stream) {
  // Parse the full section extents before sizing the output: a corrupt
  // header whose num_elements/num_blocks are inflated in concert passes
  // ParseHeader alone and would demand an arbitrarily large allocation.
  // Section slicing bounds num_blocks (hence num_elements) by the actual
  // stream size, so the failure is a clean szx::Error instead of bad_alloc.
  const Sections<T> s = ParseSections<T>(stream);
  std::vector<T> out(ByteCursor(stream).CheckedAlloc(s.header.num_elements,
                                                     sizeof(T),
                                                     kMaxBlockSize));
  DecompressInto<T>(stream, std::span<T>(out));
  return out;
}

template ByteBuffer Compress<float>(std::span<const float>, const Params&,
                                    CompressionStats*);
template ByteBuffer Compress<double>(std::span<const double>, const Params&,
                                     CompressionStats*);
template ByteSpan CompressInto<float>(std::span<const float>, const Params&,
                                      ScratchArena&, CompressionStats*);
template ByteSpan CompressInto<double>(std::span<const double>, const Params&,
                                       ScratchArena&, CompressionStats*);
template std::vector<float> Decompress<float>(ByteSpan);
template std::vector<double> Decompress<double>(ByteSpan);
template void DecompressInto<float>(ByteSpan, std::span<float>);
template void DecompressInto<double>(ByteSpan, std::span<double>);
template double ResolveAbsoluteBound<float>(std::span<const float>,
                                            const Params&);
template double ResolveAbsoluteBound<double>(std::span<const double>,
                                             const Params&);

}  // namespace szx
