// Ablation of the design choices DESIGN.md calls out:
//   1. the optimality condition x*y = R*z (on-condition vs off-condition
//      tiles at the same shared-memory budget);
//   2. output-stationary accumulation (ours) vs no output-channel reuse
//      (the naive baseline's fixed 8x8x1 tile);
//   3. the S_b <= S_sm/2 occupancy rule (one resident block vs two);
//   4. search-space pruning ratio (what Table 2's compression measures).
// Every launch is counted (direct_tiled_count), not executed. A count takes
// microseconds, so there is nothing to time: the ablation prints its
// results directly.
#include "bench_util.hpp"

#include "convbound/tune/domain.hpp"

namespace convbound::bench {
namespace {

ConvShape layer() { return make_shape(1, 128, 56, 128, 3, 1, 1); }

LaunchStats count(const ConvConfig& cfg) {
  return direct_tiled_count(MachineSpec::gtx1080ti(), layer(), cfg,
                            Layout::kNCHW);
}

void print_tile_ablation() {
  struct Cfg {
    const char* label;
    std::int64_t x, y, z;
  };
  std::printf("\n=== Ablation 1: the optimality condition x*y = R*z "
              "(same budget, different tile aspect) ===\n");
  Table t({"tile", "|log(xy/Rz)|", "I/O (MB)", "sim time (ms)"});
  // All tiles use ~576 output elements (same S_b footprint class); only the
  // first two satisfy x*y = 9*z.
  for (const Cfg& c : {Cfg{"on-condition (8,9,8)", 8, 9, 8},
                       Cfg{"on-condition (12,12,16)", 12, 12, 16},
                       Cfg{"flat (24,24,1)", 24, 24, 1},
                       Cfg{"deep (2,2,128)", 2, 2, 128},
                       Cfg{"square-ish (8,8,9)", 8, 8, 9}}) {
    ConvConfig cfg;
    cfg.x = c.x;
    cfg.y = c.y;
    cfg.z = c.z;
    cfg.nxt = cfg.nyt = 4;
    cfg.nzt = 2;
    const LaunchStats stats = count(cfg);
    t.add_row({c.label,
               Table::fmt(optimality_residual(layer(), c.x, c.y, c.z), 2),
               Table::fmt(static_cast<double>(stats.bytes_total()) / 1e6, 1),
               Table::fmt(stats.sim_time * 1e3, 3)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nexpected: I/O grows with the residual |log(x*y / R*z)|.\n");
}

void print_ablations_2_to_4() {
  const ConvShape s = layer();
  const MachineSpec spec = MachineSpec::gtx1080ti();
  std::printf("\n=== Ablations 2-4 ===\n");

  const double ours_bytes =
      static_cast<double>(count(default_tiled_config(s, spec)).bytes_total());
  const double naive_bytes =
      static_cast<double>(count(naive_direct_config(s)).bytes_total());
  std::printf("  - output-stationary tiles move %.2fx less data than the z=1 "
              "kernel (%.1f MB vs %.1f MB)\n",
              naive_bytes / ours_bytes, ours_bytes / 1e6, naive_bytes / 1e6);

  ConvConfig cfg = default_tiled_config(s, spec);
  // Two resident blocks (S_b = S_sm/2) vs one (S_b = S_sm).
  cfg.smem_budget = spec.shared_mem_per_sm / 2;
  const double two = count(cfg).sim_time;
  cfg.smem_budget = spec.shared_mem_per_sm;
  const double one = count(cfg).sim_time;
  std::printf("  - S_b = S_sm/2 (>=2 resident blocks) is %.2fx faster than "
              "S_b = S_sm at equal tiling\n",
              one / two);

  const auto pruned =
      SearchDomain::build(s, spec, {.prune_with_optimality = true});
  const auto full =
      SearchDomain::build(s, spec, {.prune_with_optimality = false});
  std::printf("  - optimality pruning keeps %llu of %llu configurations "
              "(%.1f%%)\n",
              static_cast<unsigned long long>(pruned.size()),
              static_cast<unsigned long long>(full.size()),
              100.0 * static_cast<double>(pruned.size()) /
                  static_cast<double>(full.size()));
}

}  // namespace
}  // namespace convbound::bench

int main() {
  convbound::bench::print_tile_ablation();
  convbound::bench::print_ablations_2_to_4();
  return 0;
}
