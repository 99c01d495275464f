#include "convbound/conv/algorithms.hpp"

#include <algorithm>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

std::string to_string(ConvAlgorithm algo) {
  switch (algo) {
    case ConvAlgorithm::kDirectTiled: return "direct-tiled(ours)";
    case ConvAlgorithm::kDirectNaive: return "direct-naive";
    case ConvAlgorithm::kIm2col: return "im2col+gemm";
    case ConvAlgorithm::kWinogradFused: return "winograd-fused(ours)";
    case ConvAlgorithm::kWinogradPhased: return "winograd-phased";
  }
  return "?";
}

bool algorithm_supports(ConvAlgorithm algo, const ConvShape& s) {
  switch (algo) {
    case ConvAlgorithm::kWinogradFused:
    case ConvAlgorithm::kWinogradPhased:
      // Square non-trivial kernel, unit stride, ungrouped (the minimal
      // filtering identity has no grouped/strided form), and a kernel edge
      // r for which an F(e >= 2, r) transform exists (e + r - 1 <= 8).
      return s.kh == s.kw && s.stride == 1 && s.groups == 1 && s.kh >= 2 &&
             s.kh <= 7;
    case ConvAlgorithm::kIm2col:
      // The column-matrix layout assumes every output channel reads every
      // input channel; grouped shapes take the direct paths instead.
      return s.groups == 1;
    case ConvAlgorithm::kDirectTiled:
    case ConvAlgorithm::kDirectNaive:
      return true;
  }
  return false;
}

ConvConfig default_tiled_config(const ConvShape& s, const MachineSpec& spec) {
  // S_b <= S_sm / 2 so two blocks fit per SM (Table 1); the output tile gets
  // roughly half of S_b, the rest covers the input tile and weight slice.
  const std::int64_t budget = spec.smem_floats() / 4;
  const OptimalTile t = optimal_output_tile(s, static_cast<double>(budget));
  ConvConfig cfg;
  cfg.x = t.x;
  cfg.y = t.y;
  cfg.z = t.z;
  cfg.nxt = static_cast<int>(std::min<std::int64_t>(8, t.x));
  cfg.nyt = static_cast<int>(std::min<std::int64_t>(8, t.y));
  cfg.nzt = std::max(1, static_cast<int>(std::min<std::int64_t>(
                            t.z, 256 / (cfg.nxt * cfg.nyt))));
  cfg.smem_budget = 0;  // derive from footprint
  return cfg;
}

ConvConfig naive_direct_config(const ConvShape& s) {
  ConvConfig cfg;
  cfg.x = std::min<std::int64_t>(8, s.hout());
  cfg.y = std::min<std::int64_t>(8, s.wout());
  cfg.z = 1;
  cfg.nxt = cfg.nyt = 8;
  return cfg;
}

ConvConfig default_winograd_config(const ConvShape& s, std::int64_t e,
                                   const MachineSpec& spec) {
  const std::int64_t r = s.kh;
  const std::int64_t a = e + r - 1;
  // Section 5.3: 2*(a/e)^2 * xyz ~= S/N_p with the budget S_sm/2 per block.
  const double budget = static_cast<double>(spec.smem_floats()) / 2.0 *
                        static_cast<double>(e * e) /
                        (2.0 * static_cast<double>(a * a));
  OptimalTile t = optimal_output_tile(s, budget);
  ConvConfig cfg;
  cfg.x = std::max<std::int64_t>(e, (t.x / e) * e);
  cfg.y = std::max<std::int64_t>(e, (t.y / e) * e);
  cfg.z = t.z;
  cfg.nxt = static_cast<int>(std::min<std::int64_t>(8, cfg.x));
  cfg.nyt = static_cast<int>(std::min<std::int64_t>(8, cfg.y));
  cfg.nzt = std::max(1, static_cast<int>(std::min<std::int64_t>(
                            cfg.z, 256 / (cfg.nxt * cfg.nyt))));
  cfg.smem_budget = 0;
  return cfg;
}

}  // namespace convbound
