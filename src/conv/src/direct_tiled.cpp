#include <algorithm>

#include "convbound/conv/direct.hpp"
#include "convbound/util/math.hpp"
#include "tile_io.hpp"

namespace convbound {

std::int64_t direct_tiled_smem_bytes(const ConvShape& s,
                                     const ConvConfig& cfg) {
  const std::int64_t in_rows = (cfg.x - 1) * s.stride + s.kh;
  const std::int64_t in_cols = (cfg.y - 1) * s.stride + s.kw;
  const std::int64_t floats =
      cfg.x * cfg.y * cfg.z + in_rows * in_cols + cfg.z * s.kh * s.kw;
  return floats * static_cast<std::int64_t>(sizeof(float));
}

LaunchStats direct_tiled_sim(SimGpu& gpu, const Tensor4<float>& input,
                             const Tensor4<float>& weights,
                             const ConvShape& s, const ConvConfig& cfg,
                             Tensor4<float>& out) {
  s.validate();
  CB_CHECK(cfg.x > 0 && cfg.y > 0 && cfg.z > 0);
  CB_CHECK(input.n() == s.batch && input.c() == s.cin &&
           input.h() == s.hin && input.w() == s.win);
  CB_CHECK(out.n() == s.batch && out.c() == s.cout &&
           out.h() == s.hout() && out.w() == s.wout());

  const std::int64_t hout = s.hout(), wout = s.wout();
  const std::int64_t x = std::min(cfg.x, hout), y = std::min(cfg.y, wout);
  // Grouped convolution: a z-tile must not straddle a channel group, so the
  // clamped z is snapped down to a divisor of cout_per_group.
  std::int64_t z = std::min(cfg.z, s.cout_per_group());
  while (s.cout_per_group() % z != 0) --z;
  const std::int64_t cpg = s.cin_per_group();
  const std::int64_t nx = ceil_div(hout, x), ny = ceil_div(wout, y),
                     nz = ceil_div(s.cout, z);
  const std::int64_t in_rows = (x - 1) * s.stride + s.kh;
  const std::int64_t in_cols = (y - 1) * s.stride + s.kw;
  const std::int64_t kker = s.kh * s.kw;

  LaunchConfig lc;
  lc.num_blocks = s.batch * nz * nx * ny;
  lc.threads_per_block = cfg.threads();
  const std::int64_t needed =
      (x * y * z + in_rows * in_cols + z * kker) *
      static_cast<std::int64_t>(sizeof(float));
  lc.smem_bytes_per_block = cfg.smem_budget > 0 ? cfg.smem_budget : needed;

  return gpu.launch(lc, [&, x, y, z](BlockContext& ctx) {
    // Decode block -> (batch, z-block, x-block, y-block).
    std::int64_t id = ctx.block_id();
    const std::int64_t iy = id % ny; id /= ny;
    const std::int64_t ix = id % nx; id /= nx;
    const std::int64_t iz = id % nz; id /= nz;
    const std::int64_t b = id;
    const std::int64_t oh0 = ix * x, ow0 = iy * y, oc0 = iz * z;
    const std::int64_t ex = std::min(x, hout - oh0);
    const std::int64_t ey = std::min(y, wout - ow0);
    const std::int64_t ez = std::min(z, s.cout - oc0);

    auto acc = ctx.smem().alloc<float>(static_cast<std::size_t>(x * y * z));
    auto tile =
        ctx.smem().alloc<float>(static_cast<std::size_t>(in_rows * in_cols));
    auto wbuf = ctx.smem().alloc<float>(static_cast<std::size_t>(z * kker));
    std::fill(acc.begin(), acc.end(), 0.0f);

    const std::int64_t rows_eff = (ex - 1) * s.stride + s.kh;
    const std::int64_t cols_eff = (ey - 1) * s.stride + s.kw;

    // Slide the x'*y' input tile along the (group's) channel direction
    // (alpha = 1).
    const std::int64_t c_base = (oc0 / s.cout_per_group()) * cpg;
    for (std::int64_t dc = 0; dc < cpg; ++dc) {
      detail::load_input_tile(ctx, input, b, c_base + dc,
                              oh0 * s.stride - s.pad, ow0 * s.stride - s.pad,
                              rows_eff, cols_eff, tile.data());
      for (std::int64_t dz = 0; dz < ez; ++dz) {
        ctx.load(weights.data() + weights.index(oc0 + dz, dc, 0, 0),
                 wbuf.data() + dz * kker, static_cast<std::size_t>(kker));
      }
      // Partial update of the resident output sub-block, one weight at a
      // time over contiguous output columns, so the stride-1 row update is
      // a vectorisable axpy.
      for (std::int64_t dz = 0; dz < ez; ++dz) {
        const float* wk = wbuf.data() + dz * kker;
        float* az = acc.data() + dz * x * y;
        for (std::int64_t fh = 0; fh < s.kh; ++fh) {
          for (std::int64_t fw = 0; fw < s.kw; ++fw) {
            const float wv = wk[fh * s.kw + fw];
            for (std::int64_t dx = 0; dx < ex; ++dx) {
              float* arow = az + dx * y;
              const float* trow =
                  tile.data() + (dx * s.stride + fh) * cols_eff + fw;
              if (s.stride == 1) {
                for (std::int64_t dy = 0; dy < ey; ++dy)
                  arow[dy] += wv * trow[dy];
              } else {
                for (std::int64_t dy = 0; dy < ey; ++dy)
                  arow[dy] += wv * trow[dy * s.stride];
              }
            }
          }
        }
      }
      ctx.add_flops(static_cast<std::uint64_t>(2 * ez * ex * ey * kker));
    }
    // Outputs leave the chip exactly once.
    for (std::int64_t dz = 0; dz < ez; ++dz) {
      detail::store_output_tile(ctx, out, b, oc0 + dz, oh0, ow0, ex, ey,
                                acc.data() + dz * x * y, y);
    }
  });
}

}  // namespace convbound
