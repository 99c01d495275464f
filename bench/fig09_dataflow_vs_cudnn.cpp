// Figure 9: relative speedup of the I/O-optimal dataflows over the
// cuDNN-like baseline, on the 1080Ti machine model.
//
// Paper grid: H_in = W_in in {14, 56, 112, 196, 224}, C_out in
// {128, 256, 512, 1024}, C_in = 256, 3x3 kernels; panels for direct
// convolution at mu in {1, 2, 4} and for Winograd.
// Scaled grid here: H_in in {14, 28, 56, 112}, C_out in {32, 64, 128, 256},
// C_in = 64; the comparison structure is identical.
//
// Every point goes through the plan layer: the Planner plans each algorithm
// (the baseline as the kCudnnBaselinePair best-of) and count_plan counts
// it, the same path as model inference. e is pinned to 2 to match the
// paper's F(2x2, 3x3) Winograd panels. A count takes microseconds, so there
// is nothing to time: the figure prints its panels directly.
//
// Emits BENCH_fig09_dataflow_vs_cudnn.json: each panel's geometric-mean and
// minimum speedup, and the grid's geometric mean.
#include "bench_util.hpp"

#include <algorithm>
#include <limits>

namespace convbound::bench {
namespace {

const std::vector<std::int64_t> kHin = {14, 28, 56, 112};
const std::vector<std::int64_t> kCout = {32, 64, 128, 256};
constexpr std::int64_t kCin = 64;

double seconds(const ConvShape& s, const std::vector<ConvAlgorithm>& algos) {
  SimGpu gpu(MachineSpec::gtx1080ti());
  PlannerOptions opts;
  opts.force_e = 2;  // the paper's F(2x2, 3x3) panels
  return run_planned(gpu, s, algos, opts).sim_time;
}

struct Panel {
  const char* name;
  std::int64_t stride;
  bool winograd;
  const char* geomean_key;  // gated JSON keys
  const char* min_key;
};

void print_figure() {
  JsonObject json;
  json.add("bench", "fig09_dataflow_vs_cudnn").add("machine", "gtx1080ti");
  double product = 1;
  int n = 0;
  for (const Panel& panel :
       {Panel{"mu1", 1, false, "mu1_geomean_speedup", "mu1_min_speedup"},
        Panel{"mu2", 2, false, "mu2_geomean_speedup", "mu2_min_speedup"},
        Panel{"mu4", 4, false, "mu4_geomean_speedup", "mu4_min_speedup"},
        Panel{"wino", 1, true, "wino_geomean_speedup", "wino_min_speedup"}}) {
    std::printf("\n=== Figure 9 panel: %s (speedup of ours over cuDNN-like "
                "baseline) ===\n",
                panel.name);
    Table t({"Cout \\ Hin", "14", "28", "56", "112"});
    double panel_product = 1;
    double panel_min = std::numeric_limits<double>::infinity();
    for (std::int64_t cout : kCout) {
      std::vector<std::string> row{std::to_string(cout)};
      for (std::int64_t hin : kHin) {
        const ConvShape s = make_shape(1, kCin, hin, cout, 3, panel.stride, 1);
        const double ours =
            seconds(s, {panel.winograd ? ConvAlgorithm::kWinogradFused
                                       : ConvAlgorithm::kDirectTiled});
        const double base =
            panel.winograd ? seconds(s, {ConvAlgorithm::kWinogradPhased})
                           : seconds(s, kCudnnBaselinePair);
        const double speedup = base / ours;
        row.push_back(Table::fmt(speedup, 2));
        product *= speedup;
        ++n;
        panel_product *= speedup;
        panel_min = std::min(panel_min, speedup);
      }
      t.add_row(std::move(row));
    }
    std::printf("%s", t.to_string().c_str());
    const double cells = static_cast<double>(kCout.size() * kHin.size());
    json.add(panel.geomean_key, std::pow(panel_product, 1.0 / cells))
        .add(panel.min_key, panel_min);
  }
  const double geomean = std::pow(product, 1.0 / n);
  std::printf("\ngeometric-mean speedup across the grid: %.2fx "
              "(paper: 3.32x average on the unscaled grid)\n",
              geomean);
  json.add("geomean_speedup", geomean);
  write_bench_json("fig09_dataflow_vs_cudnn", json);
}

}  // namespace
}  // namespace convbound::bench

int main() {
  convbound::bench::print_figure();
  return 0;
}
