#include <algorithm>

#include "convbound/conv/winograd.hpp"
#include "convbound/util/math.hpp"
#include "tile_io.hpp"

namespace convbound {

std::int64_t winograd_fused_smem_bytes(const ConvShape& s, std::int64_t e,
                                       const ConvConfig& cfg) {
  const std::int64_t r = s.kh;
  const std::int64_t a = e + r - 1;
  const std::int64_t tiles = (cfg.x / e) * (cfg.y / e);
  const std::int64_t floats = tiles * cfg.z * a * a        // Pi accumulators
                              + (cfg.x + r - 1) * (cfg.y + r - 1)  // input
                              + cfg.z * r * r              // kernel slices
                              + cfg.z * a * a              // U cache
                              + 2 * a * a;                 // V + scratch
  return floats * static_cast<std::int64_t>(sizeof(float));
}

namespace {

// The launch winograd_fused_sim makes and winograd_fused_count prices: the
// transform, the tile rounded to multiples of e and clamped to the output,
// the grid of Winograd tiles, and the shared memory the clamped tile needs
// (checked against the declared S_b).
struct FusedGeometry {
  WinogradTransform t;
  std::int64_t x, y, z;
  std::int64_t tbx, tby;            // Winograd tiles per block
  std::int64_t total_th, total_tw;  // Winograd tiles over the output
  std::int64_t nbx, nby, nbz;
  std::int64_t footprint;
  LaunchConfig lc;
};

FusedGeometry fused_geometry(const ConvShape& s, std::int64_t e,
                             const ConvConfig& cfg) {
  s.validate();
  CB_CHECK_MSG(s.groups == 1, "grouped convolution: use the tiled direct kernel");
  CB_CHECK(s.kh == s.kw && s.stride == 1);
  CB_CHECK(cfg.x > 0 && cfg.y > 0 && cfg.z > 0);
  const std::int64_t r = s.kh;
  CB_CHECK_MSG(e + r - 1 <= kMaxFusedWinogradTile,
               "fused Winograd F(" << e << "," << r << ") needs a = "
                                   << e + r - 1 << " <= "
                                   << kMaxFusedWinogradTile);
  FusedGeometry g;
  g.t = make_winograd_transform(e, r);
  const std::int64_t hout = s.hout(), wout = s.wout();
  g.x = std::clamp<std::int64_t>(round_up(cfg.x, e), e, round_up(hout, e));
  g.y = std::clamp<std::int64_t>(round_up(cfg.y, e), e, round_up(wout, e));
  g.z = std::min(cfg.z, s.cout);
  g.tbx = g.x / e;
  g.tby = g.y / e;
  g.total_th = ceil_div(hout, e);
  g.total_tw = ceil_div(wout, e);
  g.nbx = ceil_div(g.total_th, g.tbx);
  g.nby = ceil_div(g.total_tw, g.tby);
  g.nbz = ceil_div(s.cout, g.z);
  g.footprint = winograd_fused_smem_bytes(s, e, ConvConfig{g.x, g.y, g.z});
  g.lc.num_blocks = s.batch * g.nbz * g.nbx * g.nby;
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

LaunchStats winograd_fused_count(const MachineSpec& spec, const ConvShape& s,
                                 std::int64_t e, const ConvConfig& cfg,
                                 Layout input) {
  const FusedGeometry g = fused_geometry(s, e, cfg);
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const std::int64_t r = s.kh, a = g.t.a;
  const std::uint64_t b = u(s.batch), cin = u(s.cin), cout = u(s.cout);
  const std::uint64_t tiles = u(g.total_th * g.total_tw);
  // Per (block, channel step): the input region's in-range part and z
  // kernel slices.
  const std::uint64_t rows = detail::in_range_extent_sum(
      g.total_th * e, g.x, 1, r, s.pad, s.hin);
  const std::uint64_t cols = detail::in_range_extent_sum(
      g.total_tw * e, g.y, 1, r, s.pad, s.win);
  // Per channel step, every block transforms its z kernel slices, V of each
  // of its tiles, and multiplies each (tile, channel) pair; the inverse
  // transforms run once per (tile, channel) at the end.
  const std::uint64_t g_macs = wino_sandwich_macs(g.t.G.data(), a, r);
  const std::uint64_t v_macs = wino_sandwich_macs(g.t.BT.data(), a, a);
  const std::uint64_t y_macs = wino_sandwich_macs(g.t.AT.data(), e, a);
  return launch_stats(
      spec, g.lc,
      b * u(g.nbz) * cin * rows * cols * detail::input_elem_bytes(s, input) +
          sizeof(float) * b * u(g.nbx * g.nby) * u(s.weight_elems()),
      sizeof(float) * u(s.output_elems()),
      2 * b *
          (cin * (u(g.nbx * g.nby) * cout * g_macs +
                  tiles * u(g.nbz) * v_macs + tiles * cout * u(a * a)) +
           tiles * cout * y_macs));
}

LaunchStats winograd_fused_sim(SimGpu& gpu, const Tensor4<float>& input,
                               const Tensor4<float>& weights,
                               const ConvShape& s, std::int64_t e,
                               const ConvConfig& cfg, Tensor4<float>& out) {
  const FusedGeometry g = fused_geometry(s, e, cfg);
  const WinogradTransform& t = g.t;
  const std::int64_t r = s.kh;
  const std::int64_t a = t.a, a2 = a * a, r2 = r * r;
  const std::int64_t x = g.x, y = g.y, z = g.z;
  const std::int64_t tbx = g.tbx, tby = g.tby;
  const std::int64_t total_th = g.total_th, total_tw = g.total_tw;
  const std::int64_t nbx = g.nbx, nby = g.nby, nbz = g.nbz;
  const std::int64_t in_rows = x + r - 1, in_cols = y + r - 1;

  return gpu.launch(g.lc, [&, x, y, z](BlockContext& ctx) {
    std::int64_t id = ctx.block_id();
    const std::int64_t iby = id % nby; id /= nby;
    const std::int64_t ibx = id % nbx; id /= nbx;
    const std::int64_t ibz = id % nbz; id /= nbz;
    const std::int64_t b = id;
    const std::int64_t t0h = ibx * tbx, t0w = iby * tby, oc0 = ibz * z;
    const std::int64_t etx = std::min(tbx, total_th - t0h);
    const std::int64_t ety = std::min(tby, total_tw - t0w);
    const std::int64_t ez = std::min(z, s.cout - oc0);

    auto pi = ctx.smem().alloc<float>(
        static_cast<std::size_t>(tbx * tby * z * a2));
    auto tile = ctx.smem().alloc<float>(
        static_cast<std::size_t>(in_rows * in_cols));
    auto wbuf = ctx.smem().alloc<float>(static_cast<std::size_t>(z * r2));
    auto ubuf = ctx.smem().alloc<float>(static_cast<std::size_t>(z * a2));
    auto vbuf = ctx.smem().alloc<float>(static_cast<std::size_t>(a2));
    auto scratch = ctx.smem().alloc<float>(static_cast<std::size_t>(a2));
    std::fill(pi.begin(), pi.end(), 0.0f);

    const std::int64_t rows_eff = etx * e + r - 1;
    const std::int64_t cols_eff = ety * e + r - 1;

    for (std::int64_t c = 0; c < s.cin; ++c) {
      // One input region and z kernel slices per channel step (alpha = 1).
      detail::load_input_tile(ctx, input, b, c, t0h * e - s.pad,
                              t0w * e - s.pad, rows_eff, cols_eff,
                              tile.data());
      for (std::int64_t dz = 0; dz < ez; ++dz)
        ctx.load(weights.data() + weights.index(oc0 + dz, c, 0, 0),
                 wbuf.data() + dz * r2, static_cast<std::size_t>(r2));
      // Transformed kernels for this channel (recomputed per block — the
      // recomputation the paper's model permits to save I/O).
      for (std::int64_t dz = 0; dz < ez; ++dz) {
        const std::uint64_t macs =
            wino_sandwich(t.G.data(), a, r, wbuf.data() + dz * r2,
                          ubuf.data() + dz * a2, scratch.data());
        ctx.add_flops(2 * macs);
      }
      for (std::int64_t ti = 0; ti < etx; ++ti) {
        for (std::int64_t tj = 0; tj < ety; ++tj) {
          // V for this winograd tile, from the staged input region.
          float dtile[kMaxFusedWinogradTile * kMaxFusedWinogradTile];
          for (std::int64_t i = 0; i < a; ++i)
            for (std::int64_t j = 0; j < a; ++j)
              dtile[i * a + j] =
                  tile[static_cast<std::size_t>((ti * e + i) * cols_eff +
                                                tj * e + j)];
          const std::uint64_t vmacs = wino_sandwich(
              t.BT.data(), a, a, dtile, vbuf.data(), scratch.data());
          ctx.add_flops(2 * vmacs);
          for (std::int64_t dz = 0; dz < ez; ++dz) {
            float* acc =
                pi.data() + ((dz * tbx + ti) * tby + tj) * a2;
            const float* u = ubuf.data() + dz * a2;
            for (std::int64_t i = 0; i < a2; ++i) acc[i] += vbuf[static_cast<std::size_t>(i)] * u[i];
            ctx.add_flops(static_cast<std::uint64_t>(2 * a2));
          }
        }
      }
    }
    // Inverse-transform and store each tile's e x e outputs exactly once.
    for (std::int64_t dz = 0; dz < ez; ++dz) {
      for (std::int64_t ti = 0; ti < etx; ++ti) {
        for (std::int64_t tj = 0; tj < ety; ++tj) {
          float ytile[kMaxFusedWinogradTile * kMaxFusedWinogradTile];
          float yscratch[kMaxFusedWinogradTile * kMaxFusedWinogradTile];
          const float* acc = pi.data() + ((dz * tbx + ti) * tby + tj) * a2;
          const std::uint64_t ymacs =
              wino_sandwich(t.AT.data(), e, a, acc, ytile, yscratch);
          ctx.add_flops(2 * ymacs);
          const std::int64_t oh = (t0h + ti) * e, ow = (t0w + tj) * e;
          detail::store_output_tile(ctx, out, b, oc0 + dz, oh, ow, e, e,
                                    ytile, e);
        }
      }
    }
  });
}

}  // namespace convbound
