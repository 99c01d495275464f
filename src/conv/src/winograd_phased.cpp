#include <algorithm>
#include <vector>

#include "convbound/conv/winograd.hpp"
#include "convbound/gemm/gemm.hpp"
#include "convbound/util/math.hpp"
#include "tile_io.hpp"

namespace convbound {

namespace {

constexpr std::int64_t kTileChunk = 64;  ///< winograd tiles per block

// The launches winograd_phased_sim makes and winograd_phased_count prices:
// the transform, the Winograd tile grid and the three transform launches
// (the a^2 GEMMs take gemm_sim's own geometry).
struct PhasedGeometry {
  WinogradTransform t;
  std::int64_t tw, ntiles, chunks;
  LaunchConfig kernel_lc, input_lc, inverse_lc;
};

PhasedGeometry phased_geometry(const ConvShape& s, std::int64_t e) {
  s.validate();
  CB_CHECK_MSG(s.groups == 1, "grouped convolution: use the tiled direct kernel");
  CB_CHECK(s.kh == s.kw && s.stride == 1);
  PhasedGeometry g;
  g.t = make_winograd_transform(e, s.kh);
  const std::int64_t a2 = g.t.a * g.t.a, r2 = s.kh * s.kh;
  g.tw = ceil_div(s.wout(), e);
  g.ntiles = ceil_div(s.hout(), e) * g.tw;
  g.chunks = ceil_div(g.ntiles, kTileChunk);
  const auto floats = [](std::int64_t n) {
    return n * static_cast<std::int64_t>(sizeof(float));
  };
  // Kernel transform: one block per output channel.
  g.kernel_lc.num_blocks = s.cout;
  g.kernel_lc.threads_per_block = 128;
  g.kernel_lc.smem_bytes_per_block = floats(r2 + 2 * a2);
  // Input transform: one block per (input channel, chunk of tiles).
  g.input_lc.num_blocks = s.cin * g.chunks;
  g.input_lc.threads_per_block = 128;
  g.input_lc.smem_bytes_per_block = floats(kTileChunk * a2 + 3 * a2);
  // Inverse transform: one block per (output channel, chunk of tiles).
  g.inverse_lc = g.input_lc;
  g.inverse_lc.num_blocks = s.cout * g.chunks;
  return g;
}

}  // namespace

LaunchStats winograd_phased_count(const MachineSpec& spec, const ConvShape& s,
                                  std::int64_t e, Layout input) {
  const PhasedGeometry g = phased_geometry(s, e);
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const std::int64_t r = s.kh, a = g.t.a;
  const std::uint64_t a2 = u(a * a), cin = u(s.cin), cout = u(s.cout);
  const std::uint64_t tiles = u(g.ntiles), f = sizeof(float);
  // Per (channel, tile): the in-range part of its a x a input region.
  const std::uint64_t rows = detail::in_range_extent_sum(
      round_up(s.hout(), e), e, 1, r, s.pad, s.hin);
  const std::uint64_t cols = detail::in_range_extent_sum(
      round_up(s.wout(), e), e, 1, r, s.pad, s.win);
  const LaunchStats kernel = launch_stats(
      spec, g.kernel_lc, f * cout * cin * u(r * r), f * cout * cin * a2,
      2 * cout * cin * wino_sandwich_macs(g.t.G.data(), a, r));
  const LaunchStats in = launch_stats(
      spec, g.input_lc,
      cin * rows * cols * detail::input_elem_bytes(s, input),
      f * cin * a2 * tiles,
      2 * cin * tiles * wino_sandwich_macs(g.t.BT.data(), a, a));
  const LaunchStats gemm = gemm_count(spec, s.cout, s.cin, g.ntiles);
  const LaunchStats inverse = launch_stats(
      spec, g.inverse_lc, f * cout * a2 * tiles,
      f * cout * u(s.hout() * s.wout()),
      2 * cout * tiles * wino_sandwich_macs(g.t.AT.data(), e, a));
  // Summed in winograd_phased_sim's launch order, so sim_time rounds alike.
  LaunchStats total = kernel;
  for (std::int64_t b = 0; b < s.batch; ++b) {
    total += in;
    for (std::uint64_t pos = 0; pos < a2; ++pos) total += gemm;
    total += inverse;
  }
  return total;
}

LaunchStats winograd_phased_sim(SimGpu& gpu, const Tensor4<float>& input,
                                const Tensor4<float>& weights,
                                const ConvShape& s, std::int64_t e,
                                Tensor4<float>& out) {
  const PhasedGeometry geo = phased_geometry(s, e);
  const WinogradTransform& t = geo.t;
  const std::int64_t r = s.kh;
  const std::int64_t a = t.a, a2 = a * a, r2 = r * r;
  const std::int64_t tw = geo.tw, ntiles = geo.ntiles, chunks = geo.chunks;

  // Global scratch tensors (slow memory): U[a2][cout][cin],
  // V[a2][cin][ntiles], M[a2][cout][ntiles], reused across batch images.
  std::vector<float> U(static_cast<std::size_t>(a2 * s.cout * s.cin));
  std::vector<float> V(static_cast<std::size_t>(a2 * s.cin * ntiles));
  std::vector<float> M(static_cast<std::size_t>(a2 * s.cout * ntiles));

  LaunchStats total;

  // ---- Phase 1: kernel transform (once; kernels are batch-invariant). ----
  total += gpu.launch(geo.kernel_lc, [&](BlockContext& ctx) {
    const std::int64_t k = ctx.block_id();
    auto g = ctx.smem().alloc<float>(static_cast<std::size_t>(r2));
    auto u = ctx.smem().alloc<float>(static_cast<std::size_t>(a2));
    auto scratch = ctx.smem().alloc<float>(static_cast<std::size_t>(a2));
    for (std::int64_t c = 0; c < s.cin; ++c) {
      ctx.load(weights.data() + weights.index(k, c, 0, 0), g.data(),
               static_cast<std::size_t>(r2));
      const std::uint64_t macs = wino_sandwich(t.G.data(), a, r, g.data(),
                                               u.data(), scratch.data());
      ctx.add_flops(2 * macs);
      // Scatter to U[pos][k][c]: strided by cout*cin per position.
      for (std::int64_t pos = 0; pos < a2; ++pos)
        ctx.store_one(U.data() + (pos * s.cout + k) * s.cin + c,
                      u[static_cast<std::size_t>(pos)]);
    }
  });

  for (std::int64_t b = 0; b < s.batch; ++b) {
    // ---- Phase 2: input transform, V[pos][c][tile]. ----
    total += gpu.launch(geo.input_lc, [&](BlockContext& ctx) {
      const std::int64_t chunk = ctx.block_id() % chunks;
      const std::int64_t c = ctx.block_id() / chunks;
      const std::int64_t tile0 = chunk * kTileChunk;
      const std::int64_t tiles_here =
          std::min<std::int64_t>(kTileChunk, ntiles - tile0);
      auto vchunk = ctx.smem().alloc<float>(
          static_cast<std::size_t>(kTileChunk * a2));
      auto d = ctx.smem().alloc<float>(static_cast<std::size_t>(a2));
      auto v = ctx.smem().alloc<float>(static_cast<std::size_t>(a2));
      auto scratch = ctx.smem().alloc<float>(static_cast<std::size_t>(a2));
      for (std::int64_t dt = 0; dt < tiles_here; ++dt) {
        const std::int64_t tile = tile0 + dt;
        const std::int64_t ti = tile / tw, tj = tile % tw;
        // Phased kernels re-read halo rows per tile (the (a/e)^2 input
        // amplification the fused dataflow avoids).
        detail::load_input_tile(ctx, input, b, c, ti * e - s.pad,
                                tj * e - s.pad, a, a, d.data());
        const std::uint64_t macs = wino_sandwich(
            t.BT.data(), a, a, d.data(), v.data(), scratch.data());
        ctx.add_flops(2 * macs);
        for (std::int64_t pos = 0; pos < a2; ++pos)
          vchunk[static_cast<std::size_t>(pos * kTileChunk + dt)] =
              v[static_cast<std::size_t>(pos)];
      }
      for (std::int64_t pos = 0; pos < a2; ++pos)
        ctx.store(V.data() + (pos * s.cin + c) * ntiles + tile0,
                  vchunk.data() + pos * kTileChunk,
                  static_cast<std::size_t>(tiles_here));
    });

    // ---- Phase 3: one GEMM per transformed position:
    //      M[pos] (cout x ntiles) = U[pos] (cout x cin) * V[pos].
    for (std::int64_t pos = 0; pos < a2; ++pos) {
      total += gemm_sim(gpu, U.data() + pos * s.cout * s.cin,
                        V.data() + pos * s.cin * ntiles,
                        M.data() + pos * s.cout * ntiles, s.cout, s.cin,
                        ntiles);
    }

    // ---- Phase 4: inverse output transform. ----
    total += gpu.launch(geo.inverse_lc, [&](BlockContext& ctx) {
      const std::int64_t chunk = ctx.block_id() % chunks;
      const std::int64_t k = ctx.block_id() / chunks;
      const std::int64_t tile0 = chunk * kTileChunk;
      const std::int64_t tiles_here =
          std::min<std::int64_t>(kTileChunk, ntiles - tile0);
      auto mchunk = ctx.smem().alloc<float>(
          static_cast<std::size_t>(kTileChunk * a2));
      auto pi = ctx.smem().alloc<float>(static_cast<std::size_t>(a2));
      auto y = ctx.smem().alloc<float>(static_cast<std::size_t>(t.e * t.e));
      auto scratch =
          ctx.smem().alloc<float>(static_cast<std::size_t>(t.e * a));
      for (std::int64_t pos = 0; pos < a2; ++pos)
        ctx.load(M.data() + (pos * s.cout + k) * ntiles + tile0,
                 mchunk.data() + pos * kTileChunk,
                 static_cast<std::size_t>(tiles_here));
      for (std::int64_t dt = 0; dt < tiles_here; ++dt) {
        const std::int64_t tile = tile0 + dt;
        const std::int64_t ti = tile / tw, tj = tile % tw;
        for (std::int64_t pos = 0; pos < a2; ++pos)
          pi[static_cast<std::size_t>(pos)] =
              mchunk[static_cast<std::size_t>(pos * kTileChunk + dt)];
        const std::uint64_t macs = wino_sandwich(
            t.AT.data(), e, a, pi.data(), y.data(), scratch.data());
        ctx.add_flops(2 * macs);
        detail::store_output_tile(ctx, out, b, k, ti * e, tj * e, e, e,
                                  y.data(), e);
      }
    });
  }
  return total;
}

}  // namespace convbound
