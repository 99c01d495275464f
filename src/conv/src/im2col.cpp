#include <vector>

#include "convbound/conv/direct.hpp"
#include "convbound/gemm/gemm.hpp"
#include "convbound/util/math.hpp"
#include "tile_io.hpp"

namespace convbound {

namespace {

// The expand launch im2col_sim makes per image and im2col_count prices: one
// block per (channel, output row), staging the kh input rows that row reads
// and one column-matrix row segment.
struct ExpandGeometry {
  std::int64_t in_cols;
  LaunchConfig lc;
};

ExpandGeometry expand_geometry(const ConvShape& s) {
  s.validate();
  CB_CHECK_MSG(s.groups == 1, "grouped convolution: use the tiled direct kernel");
  ExpandGeometry g;
  g.in_cols = (s.wout() - 1) * s.stride + s.kw;
  g.lc.num_blocks = s.cin * s.hout();
  g.lc.threads_per_block = 128;
  g.lc.smem_bytes_per_block = (s.kh * g.in_cols + s.wout()) *
                              static_cast<std::int64_t>(sizeof(float));
  return g;
}

/// Builds the column matrix col[(c*kh+fh)*kw+fw][oh*wout+ow] for one image.
LaunchStats im2col_expand(SimGpu& gpu, const ExpandGeometry& g,
                          const Tensor4<float>& input, const ConvShape& s,
                          std::int64_t b, float* col) {
  const std::int64_t hout = s.hout(), wout = s.wout();
  const std::int64_t in_cols = g.in_cols;

  return gpu.launch(g.lc, [&](BlockContext& ctx) {
    const std::int64_t oh = ctx.block_id() % hout;
    const std::int64_t c = ctx.block_id() / hout;
    auto rows = ctx.smem().alloc<float>(
        static_cast<std::size_t>(s.kh * in_cols));
    auto seg = ctx.smem().alloc<float>(static_cast<std::size_t>(wout));

    detail::load_input_tile(ctx, input, b, c, oh * s.stride - s.pad, -s.pad,
                            s.kh, in_cols, rows.data());
    for (std::int64_t fh = 0; fh < s.kh; ++fh) {
      for (std::int64_t fw = 0; fw < s.kw; ++fw) {
        for (std::int64_t ow = 0; ow < wout; ++ow)
          seg[static_cast<std::size_t>(ow)] =
              rows[static_cast<std::size_t>(fh * in_cols + ow * s.stride +
                                            fw)];
        const std::int64_t row = (c * s.kh + fh) * s.kw + fw;
        ctx.store(col + row * (hout * wout) + oh * wout, seg.data(),
                  static_cast<std::size_t>(wout));
      }
    }
  });
}

}  // namespace

LaunchStats im2col_count(const MachineSpec& spec, const ConvShape& s,
                         Layout input) {
  const ExpandGeometry g = expand_geometry(s);
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const std::int64_t k = s.cin * s.kh * s.kw;
  const std::int64_t n = s.hout() * s.wout();
  // Per expand block: the in-range part of its kh input rows (one row of
  // blocks per output row, one tile spanning the width), and kh*kw row
  // segments of the column matrix.
  const std::uint64_t rows = detail::in_range_extent_sum(
      s.hout(), 1, s.stride, s.kh, s.pad, s.hin);
  const std::uint64_t cols = detail::in_range_extent_sum(
      s.wout(), s.wout(), s.stride, s.kw, s.pad, s.win);
  const LaunchStats expand = launch_stats(
      spec, g.lc, u(s.cin) * rows * cols * detail::input_elem_bytes(s, input),
      sizeof(float) * u(k) * u(n), 0);
  const LaunchStats gemm = gemm_count(spec, s.cout, k, n);
  // Summed in im2col_sim's launch order, so sim_time rounds alike.
  LaunchStats total;
  for (std::int64_t b = 0; b < s.batch; ++b) {
    total += expand;
    total += gemm;
  }
  return total;
}

LaunchStats im2col_sim(SimGpu& gpu, const Tensor4<float>& input,
                       const Tensor4<float>& weights, const ConvShape& s,
                       Tensor4<float>& out) {
  const ExpandGeometry g = expand_geometry(s);
  CB_CHECK(out.n() == s.batch && out.c() == s.cout &&
           out.h() == s.hout() && out.w() == s.wout());
  const std::int64_t k = s.cin * s.kh * s.kw;
  const std::int64_t n = s.hout() * s.wout();
  std::vector<float> col(static_cast<std::size_t>(k * n));

  LaunchStats total;
  for (std::int64_t b = 0; b < s.batch; ++b) {
    total += im2col_expand(gpu, g, input, s, b, col.data());
    // Weights [cout, cin*kh*kw] are already a row-major matrix in NCHW.
    float* out_mat = out.data() + out.index(b, 0, 0, 0);
    // The default 64x64x32 GEMM tiling: the baseline is not tuned.
    total += gemm_sim(gpu, weights.data(), col.data(), out_mat, s.cout, k, n);
  }
  return total;
}

}  // namespace convbound
