#include "convbound/gemm/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "convbound/util/check.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

void gemm_ref(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) c[i * n + j] = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += av * b[p * n + j];
    }
  }
}

namespace {

// The launch gemm_sim makes and gemm_count prices: tiles clamped to the
// matrix, the grid over C, and the staged A, B and C tiles as S_b.
struct GemmGeometry {
  std::int64_t tm, tn, tk;
  std::int64_t grid_m, grid_n;
  LaunchConfig lc;
};

GemmGeometry gemm_geometry(std::int64_t m, std::int64_t k, std::int64_t n,
                           const GemmConfig& cfg) {
  CB_CHECK(m > 0 && k > 0 && n > 0);
  GemmGeometry g;
  g.tm = std::min(cfg.tile_m, m);
  g.tn = std::min(cfg.tile_n, n);
  g.tk = std::min(cfg.tile_k, k);
  g.grid_m = ceil_div(m, g.tm);
  g.grid_n = ceil_div(n, g.tn);
  g.lc.num_blocks = g.grid_m * g.grid_n;
  g.lc.threads_per_block = cfg.threads_per_block;
  g.lc.smem_bytes_per_block = static_cast<std::int64_t>(
      (g.tm * g.tk + g.tk * g.tn + g.tm * g.tn) * sizeof(float));
  return g;
}

}  // namespace

LaunchStats gemm_count(const MachineSpec& spec, std::int64_t m,
                       std::int64_t k, std::int64_t n,
                       const GemmConfig& cfg) {
  const GemmGeometry g = gemm_geometry(m, k, n, cfg);
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  // Each block reads its row slice of A and column slice of B once: A is
  // read once per grid column, B once per grid row.
  return launch_stats(
      spec, g.lc,
      sizeof(float) * (u(m) * u(k) * u(g.grid_n) + u(k) * u(n) * u(g.grid_m)),
      sizeof(float) * u(m) * u(n), 2 * u(m) * u(n) * u(k));
}

LaunchStats gemm_sim(SimGpu& gpu, const float* a, const float* b, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t n,
                     const GemmConfig& cfg) {
  const GemmGeometry g = gemm_geometry(m, k, n, cfg);
  const std::int64_t tm = g.tm, tn = g.tn, tk = g.tk;
  const std::int64_t grid_n = g.grid_n;

  return gpu.launch(g.lc, [&, tm, tn, tk](BlockContext& ctx) {
    const std::int64_t bm = (ctx.block_id() / grid_n) * tm;
    const std::int64_t bn = (ctx.block_id() % grid_n) * tn;
    const std::int64_t em = std::min(tm, m - bm);  // effective tile dims
    const std::int64_t en = std::min(tn, n - bn);

    auto at = ctx.smem().alloc<float>(static_cast<std::size_t>(tm * tk));
    auto bt = ctx.smem().alloc<float>(static_cast<std::size_t>(tk * tn));
    auto ct = ctx.smem().alloc<float>(static_cast<std::size_t>(tm * tn));
    std::fill(ct.begin(), ct.end(), 0.0f);

    for (std::int64_t p0 = 0; p0 < k; p0 += tk) {
      const std::int64_t ek = std::min(tk, k - p0);
      ctx.load_strided(a + bm * k + p0, k, at.data(),
                       static_cast<std::size_t>(em),
                       static_cast<std::size_t>(ek));
      ctx.load_strided(b + p0 * n + bn, n, bt.data(),
                       static_cast<std::size_t>(ek),
                       static_cast<std::size_t>(en));
      for (std::int64_t i = 0; i < em; ++i) {
        for (std::int64_t p = 0; p < ek; ++p) {
          const float av = at[static_cast<std::size_t>(i * ek + p)];
          float* crow = ct.data() + i * tn;
          const float* brow = bt.data() + p * en;
          for (std::int64_t j = 0; j < en; ++j) crow[j] += av * brow[j];
        }
      }
      ctx.add_flops(static_cast<std::uint64_t>(2 * em * en * ek));
    }
    for (std::int64_t i = 0; i < em; ++i) {
      ctx.store(c + (bm + i) * n + bn, ct.data() + i * tn,
                static_cast<std::size_t>(en));
    }
  });
}

}  // namespace convbound
