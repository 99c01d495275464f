#include <vector>

#include "convbound/conv/direct.hpp"
#include "convbound/gemm/gemm.hpp"
#include "convbound/util/math.hpp"
#include "tile_io.hpp"

namespace convbound {

namespace {

/// Builds the column matrix col[(c*kh+fh)*kw+fw][oh*wout+ow] for one image.
/// Blocks own one (channel, output row) pair: they stage the kh input rows
/// the output row touches, then emit kh*kw column-matrix row segments.
LaunchStats im2col_expand(SimGpu& gpu, const Tensor4<float>& input,
                          const ConvShape& s, std::int64_t b, float* col) {
  const std::int64_t hout = s.hout(), wout = s.wout();
  const std::int64_t in_cols = (wout - 1) * s.stride + s.kw;

  LaunchConfig lc;
  lc.num_blocks = s.cin * hout;
  lc.threads_per_block = 128;
  lc.smem_bytes_per_block = (s.kh * in_cols + wout) *
                            static_cast<std::int64_t>(sizeof(float));

  return gpu.launch(lc, [&](BlockContext& ctx) {
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

LaunchStats im2col_sim(SimGpu& gpu, const Tensor4<float>& input,
                       const Tensor4<float>& weights, const ConvShape& s,
                       Tensor4<float>& out) {
  s.validate();
  CB_CHECK_MSG(s.groups == 1, "grouped convolution: use the tiled direct kernel");
  CB_CHECK(out.n() == s.batch && out.c() == s.cout &&
           out.h() == s.hout() && out.w() == s.wout());
  const std::int64_t k = s.cin * s.kh * s.kw;
  const std::int64_t n = s.hout() * s.wout();
  std::vector<float> col(static_cast<std::size_t>(k * n));

  LaunchStats total;
  for (std::int64_t b = 0; b < s.batch; ++b) {
    total += im2col_expand(gpu, input, s, b, col.data());
    // Weights [cout, cin*kh*kw] are already a row-major matrix in NCHW.
    float* out_mat = out.data() + out.index(b, 0, 0, 0);
    // The default 64x64x32 GEMM tiling: the baseline is not tuned.
    total += gemm_sim(gpu, weights.data(), col.data(), out_mat, s.cout, k, n);
  }
  return total;
}

}  // namespace convbound
