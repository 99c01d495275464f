#include <algorithm>

#include "convbound/conv/direct.hpp"
#include "convbound/util/math.hpp"
#include "tile_io.hpp"

namespace convbound {

namespace {

// Output channels one wide-tile pixel keeps in registers at a time.
constexpr std::int64_t kChunk = 16;
// z-tiles narrower than this take the row-axpy path instead: a channel loop
// of a few iterations cannot amortise its per-pixel accumulator traffic.
constexpr std::int64_t kWideZ = 8;

// One input channel's kh*kw taps into `n` (kChunk when kFull) consecutive
// output channels of one output pixel: acc[c] += w[(fh*kw + fw)*z + c] *
// in[fh*cols + fw]. The partial sums live in a fixed-size local fragment,
// so acc is read and written once per call rather than once per tap.
template <bool kFull>
inline void accumulate_chunk(float* acc, const float* w, std::int64_t z,
                             const float* in, std::int64_t cols,
                             std::int64_t kh, std::int64_t kw,
                             std::int64_t n) {
  const std::int64_t m = kFull ? kChunk : n;
  float r[kChunk];
  for (std::int64_t c = 0; c < m; ++c) r[c] = acc[c];
  for (std::int64_t fh = 0; fh < kh; ++fh) {
    for (std::int64_t fw = 0; fw < kw; ++fw) {
      const float t = in[fh * cols + fw];
      const float* wk = w + (fh * kw + fw) * z;
      for (std::int64_t c = 0; c < m; ++c) r[c] += wk[c] * t;
    }
  }
  for (std::int64_t c = 0; c < m; ++c) acc[c] = r[c];
}

}  // namespace

std::int64_t direct_tiled_smem_bytes(const ConvShape& s,
                                     const ConvConfig& cfg) {
  const std::int64_t in_rows = (cfg.x - 1) * s.stride + s.kh;
  const std::int64_t in_cols = (cfg.y - 1) * s.stride + s.kw;
  const std::int64_t floats =
      cfg.x * cfg.y * cfg.z + in_rows * in_cols + cfg.z * s.kh * s.kw;
  return floats * static_cast<std::int64_t>(sizeof(float));
}

namespace {

// The launch direct_tiled_sim makes and direct_tiled_count prices: the tile
// clamped to the output (z snapped to the channel group), the grid, and the
// shared memory the clamped tile needs (checked against the declared S_b).
struct TiledGeometry {
  std::int64_t x, y, z;
  std::int64_t nx, ny, nz;
  std::int64_t footprint;
  LaunchConfig lc;
};

TiledGeometry tiled_geometry(const ConvShape& s, const ConvConfig& cfg) {
  s.validate();
  CB_CHECK(cfg.x > 0 && cfg.y > 0 && cfg.z > 0);
  TiledGeometry g;
  g.x = std::min(cfg.x, s.hout());
  g.y = std::min(cfg.y, s.wout());
  // Grouped convolution: a z-tile must not straddle a channel group, so the
  // clamped z is snapped down to a divisor of cout_per_group.
  g.z = std::min(cfg.z, s.cout_per_group());
  while (s.cout_per_group() % g.z != 0) --g.z;
  g.nx = ceil_div(s.hout(), g.x);
  g.ny = ceil_div(s.wout(), g.y);
  g.nz = ceil_div(s.cout, g.z);
  g.footprint = direct_tiled_smem_bytes(s, ConvConfig{g.x, g.y, g.z});
  g.lc.num_blocks = s.batch * g.nz * g.nx * g.ny;
  g.lc.threads_per_block = cfg.threads();
  g.lc.smem_bytes_per_block =
      cfg.smem_budget > 0 ? cfg.smem_budget : g.footprint;
  // The block's allocations sum to the footprint, so a smaller declared S_b
  // overflows in the launch; fail before it, and in the count alike.
  CB_CHECK_MSG(g.footprint <= g.lc.smem_bytes_per_block,
               "shared memory overflow: need " << g.footprint << " B, have "
                                               << g.lc.smem_bytes_per_block
                                               << " B");
  return g;
}

}  // namespace

LaunchStats direct_tiled_count(const MachineSpec& spec, const ConvShape& s,
                               const ConvConfig& cfg, Layout input) {
  const TiledGeometry g = tiled_geometry(s, cfg);
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const std::uint64_t cpg = u(s.cin_per_group());
  // Per (block, channel step): the input tile's in-range part, and z kernel
  // slices for every output channel of the block.
  const std::uint64_t rows = detail::in_range_extent_sum(
      s.hout(), g.x, s.stride, s.kh, s.pad, s.hin);
  const std::uint64_t cols = detail::in_range_extent_sum(
      s.wout(), g.y, s.stride, s.kw, s.pad, s.win);
  return launch_stats(
      spec, g.lc,
      u(s.batch) * u(g.nz) * cpg * rows * cols *
              detail::input_elem_bytes(s, input) +
          sizeof(float) * u(s.batch) * u(g.nx * g.ny) * u(s.weight_elems()),
      sizeof(float) * u(s.output_elems()), u(s.flops()));
}

LaunchStats direct_tiled_sim(SimGpu& gpu, const Tensor4<float>& input,
                             const Tensor4<float>& weights,
                             const ConvShape& s, const ConvConfig& cfg,
                             Tensor4<float>& out) {
  const TiledGeometry g = tiled_geometry(s, cfg);
  CB_CHECK(input.n() == s.batch && input.c() == s.cin &&
           input.h() == s.hin && input.w() == s.win);
  CB_CHECK(out.n() == s.batch && out.c() == s.cout &&
           out.h() == s.hout() && out.w() == s.wout());

  const std::int64_t hout = s.hout(), wout = s.wout();
  const std::int64_t x = g.x, y = g.y, z = g.z;
  const std::int64_t nx = g.nx, ny = g.ny, nz = g.nz;
  const std::int64_t cpg = s.cin_per_group();
  const std::int64_t in_rows = (x - 1) * s.stride + s.kh;
  const std::int64_t in_cols = (y - 1) * s.stride + s.kw;
  const std::int64_t kker = s.kh * s.kw;

  return gpu.launch(g.lc, [&, x, y, z](BlockContext& ctx) {
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

    // acc is pixel-major, channel-minor: acc[(dx*y + dy)*z + dz]. wbuf holds
    // the z kernel slices transposed, wbuf[k*z + dz], so one tap's weights
    // for consecutive output channels are contiguous.
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
      // kker contiguous floats per output channel leave global memory; only
      // their on-chip placement is transposed.
      for (std::int64_t dz = 0; dz < ez; ++dz) {
        const float* src = weights.data() + weights.index(oc0 + dz, dc, 0, 0);
        for (std::int64_t k = 0; k < kker; ++k) wbuf[k * z + dz] = src[k];
      }
      ctx.charge_load(static_cast<std::size_t>(ez * kker) * sizeof(float));

      // Partial update of the resident output sub-block. Every element
      // receives its += w*t in (fh, fw) order, whichever path runs.
      if (ez >= kWideZ) {
        // Wide z-tile: per output pixel, chunks of output channels stay in
        // registers across all kh*kw taps.
        for (std::int64_t dx = 0; dx < ex; ++dx) {
          for (std::int64_t dy = 0; dy < ey; ++dy) {
            float* apix = acc.data() + (dx * y + dy) * z;
            const float* tpix =
                tile.data() + dx * s.stride * cols_eff + dy * s.stride;
            std::int64_t dz0 = 0;
            for (; dz0 + kChunk <= ez; dz0 += kChunk)
              accumulate_chunk<true>(apix + dz0, wbuf.data() + dz0, z, tpix,
                                     cols_eff, s.kh, s.kw, kChunk);
            if (dz0 < ez)
              accumulate_chunk<false>(apix + dz0, wbuf.data() + dz0, z, tpix,
                                      cols_eff, s.kh, s.kw, ez - dz0);
          }
        }
      } else {
        // Narrow z-tile (depthwise snaps to z = 1): one weight at a time
        // over a row of output columns, a contiguous axpy when z = 1 and
        // stride = 1.
        for (std::int64_t dz = 0; dz < ez; ++dz) {
          for (std::int64_t fh = 0; fh < s.kh; ++fh) {
            for (std::int64_t fw = 0; fw < s.kw; ++fw) {
              const float wv = wbuf[(fh * s.kw + fw) * z + dz];
              for (std::int64_t dx = 0; dx < ex; ++dx) {
                float* arow = acc.data() + dx * y * z + dz;
                const float* trow =
                    tile.data() + (dx * s.stride + fh) * cols_eff + fw;
                if (z == 1 && s.stride == 1) {
                  for (std::int64_t dy = 0; dy < ey; ++dy)
                    arow[dy] += wv * trow[dy];
                } else {
                  for (std::int64_t dy = 0; dy < ey; ++dy)
                    arow[dy * z] += wv * trow[dy * s.stride];
                }
              }
            }
          }
        }
      }
      ctx.add_flops(static_cast<std::uint64_t>(2 * ez * ex * ey * kker));
    }
    // Outputs leave the chip exactly once. With z > 1 each channel's plane
    // is gathered into the input-tile buffer, free after the channel loop
    // (in_rows*in_cols >= x*y); with z = 1 acc already is the plane.
    for (std::int64_t dz = 0; dz < ez; ++dz) {
      const float* plane = acc.data();
      if (z > 1) {
        for (std::int64_t dx = 0; dx < ex; ++dx)
          for (std::int64_t dy = 0; dy < ey; ++dy)
            tile[dx * y + dy] = acc[(dx * y + dy) * z + dz];
        plane = tile.data();
      }
      detail::store_output_tile(ctx, out, b, oc0 + dz, oh0, ow0, ex, ey,
                                plane, y);
    }
  });
}

}  // namespace convbound
