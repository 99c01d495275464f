// Figure 13: sensitivity to the accelerator architecture — achieved GFlops
// of (a) our dataflow with the auto-tuning engine, (b) a TVM-like tuned
// configuration and (c) the vendor-library-like baseline, across three
// machine models (1080Ti / Titan X / gfx906) on the paper's four cases.
//
// Paper shapes use C_in = 512; scaled here to C_in = 128, C_out = 64.
//
// Both tuners search on the counting BatchMeasurer and the vendor-like
// baseline is a counted plan, so no kernel executes and the whole figure
// takes well under a second; it prints each cell as it is computed. Emits
// BENCH_fig13_arch_sensitivity.json: every cell's three GFLOP/s figures.
#include "bench_util.hpp"

#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/tuners.hpp"

namespace convbound::bench {
namespace {

constexpr int kBudget = 40;

struct Case {
  std::string name;
  ConvShape shape;
  bool winograd;
};

// Gated JSON keys, [case][machine] like cases() x machines(), each
// {ours, TVM-like, vendor-like} GFLOP/s.
const char* const kCellKeys[4][3][3] = {
    {{"d28_1080ti_ours", "d28_1080ti_tvm", "d28_1080ti_vendor"},
     {"d28_titanx_ours", "d28_titanx_tvm", "d28_titanx_vendor"},
     {"d28_gfx906_ours", "d28_gfx906_tvm", "d28_gfx906_vendor"}},
    {{"d112_1080ti_ours", "d112_1080ti_tvm", "d112_1080ti_vendor"},
     {"d112_titanx_ours", "d112_titanx_tvm", "d112_titanx_vendor"},
     {"d112_gfx906_ours", "d112_gfx906_tvm", "d112_gfx906_vendor"}},
    {{"d112s2_1080ti_ours", "d112s2_1080ti_tvm", "d112s2_1080ti_vendor"},
     {"d112s2_titanx_ours", "d112s2_titanx_tvm", "d112s2_titanx_vendor"},
     {"d112s2_gfx906_ours", "d112s2_gfx906_tvm", "d112s2_gfx906_vendor"}},
    {{"wino112_1080ti_ours", "wino112_1080ti_tvm", "wino112_1080ti_vendor"},
     {"wino112_titanx_ours", "wino112_titanx_tvm", "wino112_titanx_vendor"},
     {"wino112_gfx906_ours", "wino112_gfx906_tvm", "wino112_gfx906_vendor"}}};

std::vector<Case> cases() {
  return {
      {"direct 28x28 mu1", make_shape(1, 128, 28, 64, 3, 1, 1), false},
      {"direct 112x112 mu1", make_shape(1, 128, 112, 64, 3, 1, 1), false},
      {"direct 112x112 mu2", make_shape(1, 128, 112, 64, 3, 2, 1), false},
      {"winograd 112x112", make_shape(1, 128, 112, 64, 3, 1, 1), true},
  };
}

std::vector<MachineSpec> machines() {
  return {MachineSpec::gtx1080ti(), MachineSpec::titan_x(),
          MachineSpec::gfx906()};
}

double tuned_gflops(const MachineSpec& spec, const Case& c, bool prune) {
  DomainOptions opts;
  opts.winograd = c.winograd;
  opts.prune_with_optimality = prune;
  const auto domain = SearchDomain::build(c.shape, spec, opts);
  BatchMeasurer m(spec, domain, 5);
  AteTuner::Params params;
  if (prune) {
    // Our engine starts from the template's analytic default schedule.
    params.seeds.push_back(c.winograd
                               ? default_winograd_config(c.shape, 2, spec)
                               : default_tiled_config(c.shape, spec));
  }
  AteTuner tuner(5, params);
  const TuneResult r = tuner.run(m, kBudget);
  return m.gflops(r.best_seconds);
}

double vendor_gflops(const MachineSpec& spec, const Case& c) {
  SimGpu gpu(spec);
  PlannerOptions opts;
  opts.force_e = 2;
  const LaunchStats stats = run_planned(
      gpu, c.shape,
      c.winograd ? std::vector<ConvAlgorithm>{ConvAlgorithm::kWinogradPhased}
                 : kCudnnBaselinePair,
      opts);
  return static_cast<double>(c.shape.flops()) / stats.sim_time / 1e9;
}

void print_figure() {
  std::printf("\n=== Figure 13: architecture sensitivity (GFlops) ===\n");
  JsonObject json;
  json.add("bench", "fig13_arch_sensitivity").add("budget", kBudget);
  const std::vector<Case> all_cases = cases();
  const std::vector<MachineSpec> all_machines = machines();
  for (std::size_t i = 0; i < all_cases.size(); ++i) {
    const Case& c = all_cases[i];
    std::printf("\n--- %s ---\n", c.name.c_str());
    Table t({"machine", "ours (ATE)", "TVM-like", "vendor-like",
             "ours/vendor", "ours/TVM"});
    for (std::size_t j = 0; j < all_machines.size(); ++j) {
      const MachineSpec& spec = all_machines[j];
      const double ours = tuned_gflops(spec, c, /*prune=*/true);
      const double tvm = tuned_gflops(spec, c, /*prune=*/false);
      const double vendor = vendor_gflops(spec, c);
      t.add_row({spec.name, Table::fmt(ours, 0), Table::fmt(tvm, 0),
                 Table::fmt(vendor, 0), Table::fmt(ours / vendor, 2),
                 Table::fmt(ours / tvm, 2)});
      json.add(kCellKeys[i][j][0], ours)
          .add(kCellKeys[i][j][1], tvm)
          .add(kCellKeys[i][j][2], vendor);
    }
    std::printf("%s", t.to_string().c_str());
  }
  std::printf("\npaper shape to check: ours >= TVM-like >= vendor-like on "
              "every architecture; the ordering is consistent across "
              "machines (portability of the dataflow).\n");
  write_bench_json("fig13_arch_sensitivity", json);
}

}  // namespace
}  // namespace convbound::bench

int main() {
  convbound::bench::print_figure();
  return 0;
}
