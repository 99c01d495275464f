// Internal helpers for moving 2-D tiles between global tensors and shared
// memory with exact I/O accounting (padding reads are free: real kernels
// synthesise zeros on chip), and the closed form of that accounting that
// the *_count functions sum without moving any data.
#pragma once

#include <algorithm>
#include <cstring>

#include "convbound/machine/sim_gpu.hpp"
#include "convbound/tensor/conv_shape.hpp"
#include "convbound/tensor/tensor.hpp"

namespace convbound::detail {

/// Loads input(b, c, h0:h0+rows, w0:w0+cols) into dst (packed rows*cols),
/// zero-filling out-of-range positions without counting them as traffic.
/// Honours the tensor layout: W-contiguous layouts load row segments,
/// others pay gather (transaction-granular) cost.
inline void load_input_tile(BlockContext& ctx, const Tensor4<float>& in,
                            std::int64_t b, std::int64_t c, std::int64_t h0,
                            std::int64_t w0, std::int64_t rows,
                            std::int64_t cols, float* dst) {
  const auto& st = in.strides();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* drow = dst + r * cols;
    const std::int64_t ih = h0 + r;
    if (ih < 0 || ih >= in.h()) {
      std::memset(drow, 0, static_cast<std::size_t>(cols) * sizeof(float));
      continue;
    }
    const std::int64_t lo = std::max<std::int64_t>(0, -w0);
    const std::int64_t hi = std::min<std::int64_t>(cols, in.w() - w0);
    if (lo > 0)
      std::memset(drow, 0, static_cast<std::size_t>(lo) * sizeof(float));
    if (hi < cols)
      std::memset(drow + hi, 0,
                  static_cast<std::size_t>(cols - hi) * sizeof(float));
    if (lo >= hi) continue;
    const float* src = in.data() + in.index(b, c, ih, w0 + lo);
    if (st.w == 1) {
      ctx.load(src, drow + lo, static_cast<std::size_t>(hi - lo));
    } else {
      ctx.load_gather(src, st.w, drow + lo, static_cast<std::size_t>(hi - lo));
    }
  }
}

/// Bytes load_input_tile counts per in-range element of an input of shape
/// `s` stored in `layout`.
inline std::uint64_t input_elem_bytes(const ConvShape& s, Layout layout) {
  const Strides4 st = make_strides(layout, s.batch, s.cin, s.hin, s.win);
  return BlockContext::gather_cost_bytes<float>(st.w, 1);
}

/// The closed form of load_input_tile's extents along one axis: the sum,
/// over the tiles of `tile` outputs that cover `out` outputs, of how many of
/// the tile's (extent - 1) * mu + k input positions, starting at
/// o0 * mu - pad, lie inside [0, in). Rows and columns factor, so a grid's
/// counted input elements are the product of the two axis sums.
inline std::uint64_t in_range_extent_sum(std::int64_t out, std::int64_t tile,
                                         std::int64_t mu, std::int64_t k,
                                         std::int64_t pad, std::int64_t in) {
  std::uint64_t sum = 0;
  for (std::int64_t o0 = 0; o0 < out; o0 += tile) {
    const std::int64_t lo = o0 * mu - pad;
    const std::int64_t hi = lo + (std::min(tile, out - o0) - 1) * mu + k;
    sum += static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::min(hi, in) - std::max<std::int64_t>(lo, 0)));
  }
  return sum;
}

/// Stores a packed rows*cols tile into out(b, c, h0:, w0:), clipped to the
/// tensor bounds. Out tensors are NCHW, so rows are contiguous.
inline void store_output_tile(BlockContext& ctx, Tensor4<float>& out,
                              std::int64_t b, std::int64_t c, std::int64_t h0,
                              std::int64_t w0, std::int64_t rows,
                              std::int64_t cols, const float* src,
                              std::int64_t src_stride) {
  const std::int64_t re = std::min(rows, out.h() - h0);
  const std::int64_t ce = std::min(cols, out.w() - w0);
  for (std::int64_t r = 0; r < re; ++r) {
    ctx.store(out.data() + out.index(b, c, h0 + r, w0),
              src + r * src_stride, static_cast<std::size_t>(ce));
  }
}

}  // namespace convbound::detail
