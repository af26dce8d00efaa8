// The one per-block encoder loop (paper Sec. 4, steps 1-4): block stats,
// constant/non-constant decision, and payload encode over a contiguous
// range of blocks, emitted as private section fragments.  Serial
// CompressInto runs it once over [0, num_blocks); CompressOmp runs it once
// per chunk and stitches the fragments, so both encoders share every
// per-block byte by construction.
#pragma once

#include <algorithm>
#include <span>

#include "core/arena.hpp"
#include "core/bitops.hpp"
#include "core/block_plan.hpp"
#include "core/block_stats.hpp"
#include "core/byte_cursor.hpp"
#include "core/compressor.hpp"
#include "core/encode.hpp"
#include "core/format.hpp"
#include "core/kernels/kernels.hpp"

namespace szx {

// Section fragments of one block range, viewing arena memory.  Sections
// are capacity spans; the *_n cursors track the live prefixes.
template <SupportedFloat T>
struct SectionFragment {
  std::span<std::byte> type_bits;
  std::span<std::byte> const_mu;
  std::span<std::byte> ncb_req;
  std::span<std::byte> ncb_mu;
  std::span<std::byte> ncb_zsize;
  std::span<std::byte> payload;
  std::size_t const_mu_n = 0;
  std::size_t ncb_n = 0;
  std::size_t payload_n = 0;
  std::uint64_t num_constant = 0;
  std::uint64_t num_lossless = 0;
};

// Compresses blocks [first, last) into a fragment carved from `arena`.
// `first` must be a multiple of 8 so the fragment's type bits start on a
// byte boundary.  The arena is reset at entry and sized to the range's
// worst case up front (every block non-constant, every payload at its
// cap), so no section reallocates and steady-state calls never touch the
// heap.  An arena must not be shared by concurrent calls.
template <SupportedFloat T>
void CompressBlockRange(std::span<const T> data, const Params& params,
                        double abs_bound, int eb_expo, std::uint64_t first,
                        std::uint64_t last, ScratchArena& arena,
                        SectionFragment<T>& frag) {
  using Bits = typename FloatTraits<T>::Bits;
  arena.Reset();
  const std::uint32_t bs = params.block_size;
  const std::uint64_t n = data.size();
  const std::size_t nb = static_cast<std::size_t>(last - first);
  const std::uint64_t elem_end = std::min<std::uint64_t>(n, last * bs);
  const std::size_t range_bytes =
      static_cast<std::size_t>(elem_end - first * bs) * sizeof(T);
  const std::span<std::byte> type_bits =
      arena.AllocateSpan<std::byte>((nb + 7) / 8);
  std::fill(type_bits.begin(), type_bits.end(), std::byte{0});
  const std::span<std::byte> const_mu =
      arena.AllocateSpan<std::byte>(nb * sizeof(T));
  const std::span<std::byte> ncb_req = arena.AllocateSpan<std::byte>(nb);
  const std::span<std::byte> ncb_mu =
      arena.AllocateSpan<std::byte>(nb * sizeof(T));
  const std::span<std::byte> ncb_zsize = arena.AllocateSpan<std::byte>(nb * 2);
  const std::span<std::byte> payload = arena.AllocateSpan<std::byte>(
      kernels::FramePayloadCapacity(nb, bs, range_bytes));

  // Spans and cursors live in locals and are published to `frag` at the
  // end: the byte stores below may alias any object, so fragment members
  // would be reloaded on every block.
  std::size_t const_mu_n = 0;
  std::size_t ncb_n = 0;
  std::size_t payload_n = 0;
  std::uint64_t num_constant = 0;
  std::uint64_t num_lossless = 0;
  for (std::uint64_t k = first; k < last; ++k) {
    const std::uint64_t begin = k * bs;
    const std::uint64_t count = std::min<std::uint64_t>(bs, n - begin);
    const std::span<const T> block = data.subspan(begin, count);
    const BlockStats<T> st = ComputeBlockStats(block);
    const BlockDecision<T> d = DecideBlock(block, st, params.mode,
                                           params.error_bound, abs_bound,
                                           eb_expo);
    if (d.is_constant) {
      // Constant block: mu represents every value within the bound.
      ++num_constant;
      // szx-lint: allow(ptr-arith) -- cursor into the const_mu span allocated at nb*sizeof(T) above; advances sizeof(T) per constant block
      StoreWord<Bits>(const_mu.data() + const_mu_n,
                      std::bit_cast<Bits>(d.mu));
      const_mu_n += sizeof(T);
      continue;
    }
    SetNonConstant(type_bits.data(), k - first);
    if (d.is_lossless) ++num_lossless;
    ncb_req[ncb_n] = std::byte{d.plan.req_length};
    // szx-lint: allow(ptr-arith) -- cursor into the ncb_mu span allocated at nb*sizeof(T) above; ncb_n < nb
    StoreWord<Bits>(ncb_mu.data() + ncb_n * sizeof(T),
                    std::bit_cast<Bits>(d.mu));
    // szx-lint: allow(ptr-arith) -- cursor into the payload span allocated at FramePayloadCapacity above; zsize stays within each block's share
    std::byte* const block_dst = payload.data() + payload_n;
    const std::size_t zsize =
        EncodeBlockInto(params.solution, block, d.mu, d.plan, block_dst);
    // szx-lint: allow(ptr-arith) -- cursor into the ncb_zsize span allocated at nb*2 above; ncb_n < nb
    StoreWord<std::uint16_t>(ncb_zsize.data() + ncb_n * 2,
                             CheckedNarrow<std::uint16_t>(zsize));
    payload_n += zsize;
    ++ncb_n;
  }
  frag = SectionFragment<T>{type_bits,  const_mu,     ncb_req,
                            ncb_mu,     ncb_zsize,    payload,
                            const_mu_n, ncb_n,        payload_n,
                            num_constant, num_lossless};
}

}  // namespace szx
