// Figure 9: relative speedup of the I/O-optimal dataflows over the
// cuDNN-like baseline, on the 1080Ti machine model.
//
// Paper grid: H_in = W_in in {14, 56, 112, 196, 224}, C_out in
// {128, 256, 512, 1024}, C_in = 256, 3x3 kernels; panels for direct
// convolution at mu in {1, 2, 4} and for Winograd.
// Scaled grid here: H_in in {14, 28, 56, 112}, C_out in {32, 64, 128, 256},
// C_in = 64 (see EXPERIMENTS.md); the comparison structure is identical.
//
// Every point goes through the plan layer: the Planner plans each algorithm
// (the baseline as the kCudnnBaselinePair best-of) and run_plan executes it,
// the same path as the API and model inference. e is pinned to 2 to match
// the paper's F(2x2, 3x3) Winograd panels.
#include "bench_util.hpp"

namespace convbound::bench {
namespace {

const std::vector<std::int64_t> kHin = {14, 28, 56, 112};
const std::vector<std::int64_t> kCout = {32, 64, 128, 256};
constexpr std::int64_t kCin = 64;

LaunchStats run_point(const ConvShape& s,
                      const std::vector<ConvAlgorithm>& algos) {
  SimGpu gpu(MachineSpec::gtx1080ti());
  PlannerOptions opts;
  opts.force_e = 2;  // the paper's F(2x2, 3x3) panels
  return run_planned(gpu, s, algos, 1, opts);
}

std::string key(const char* panel, std::int64_t hin, std::int64_t cout,
                const char* impl) {
  return std::string("fig09/") + panel + "/hin" + std::to_string(hin) +
         "/cout" + std::to_string(cout) + "/" + impl;
}

void register_direct_panel(std::int64_t mu) {
  const std::string panel = "mu" + std::to_string(mu);
  for (std::int64_t cout : kCout) {
    for (std::int64_t hin : kHin) {
      const ConvShape s = make_shape(1, kCin, hin, cout, 3, mu, 1);
      register_point(key(panel.c_str(), hin, cout, "ours"), [s] {
        return run_point(s, {ConvAlgorithm::kDirectTiled});
      });
      register_point(key(panel.c_str(), hin, cout, "cudnn"), [s] {
        return run_point(s, kCudnnBaselinePair);
      });
    }
  }
}

void register_winograd_panel() {
  for (std::int64_t cout : kCout) {
    for (std::int64_t hin : kHin) {
      const ConvShape s = make_shape(1, kCin, hin, cout, 3, 1, 1);
      register_point(key("wino", hin, cout, "ours"), [s] {
        return run_point(s, {ConvAlgorithm::kWinogradFused});
      });
      register_point(key("wino", hin, cout, "cudnn"), [s] {
        return run_point(s, {ConvAlgorithm::kWinogradPhased});
      });
    }
  }
}

void print_summary() {
  auto& reg = Registry::instance();
  double product = 1;
  int n = 0;
  for (const char* panel : {"mu1", "mu2", "mu4", "wino"}) {
    std::printf("\n=== Figure 9 panel: %s (speedup of ours over cuDNN-like "
                "baseline) ===\n",
                panel);
    Table t({"Cout \\ Hin", "14", "28", "56", "112"});
    for (std::int64_t cout : kCout) {
      std::vector<std::string> row{std::to_string(cout)};
      for (std::int64_t hin : kHin) {
        const double ours = reg.get(key(panel, hin, cout, "ours") + "/time");
        const double base = reg.get(key(panel, hin, cout, "cudnn") + "/time");
        row.push_back(Table::fmt(base / ours, 2));
        product *= base / ours;
        ++n;
      }
      t.add_row(std::move(row));
    }
    std::printf("%s", t.to_string().c_str());
  }
  std::printf("\ngeometric-mean speedup across the grid: %.2fx "
              "(paper: 3.32x average on the unscaled grid)\n",
              std::pow(product, 1.0 / n));
}

}  // namespace
}  // namespace convbound::bench

int main(int argc, char** argv) {
  using namespace convbound::bench;
  register_direct_panel(1);
  register_direct_panel(2);
  register_direct_panel(4);
  register_winograd_panel();
  return run_all(argc, argv, print_summary);
}
