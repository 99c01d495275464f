// Figure 10: batched direct convolution — speedup of the dataflow over the
// cuDNN-like baseline as batch size grows, for three input sizes.
//
// Paper: H_in in {14, 56, 112}, batch in {32, 64, 128}, C_out = 128,
// C_in = 256, 3x3, mu = 1, 1080Ti.
// Scaled: C_in = 64, C_out = 32, batch in {8, 16, 32}.
//
// Ours is the tiled dataflow at its analytic default tile, counted
// (direct_tiled_count); the baseline is the planned best-of, counted. A
// count takes microseconds, so there is nothing to time: the figure prints
// its table directly.
// Emits BENCH_fig10_batched_conv.json: the speedup of every (H_in, batch)
// cell.
#include "bench_util.hpp"

namespace convbound::bench {
namespace {

const std::vector<std::int64_t> kHin = {14, 56, 112};
const std::vector<std::int64_t> kBatch = {8, 16, 32};
// Gated JSON keys, indexed [H_in][batch] like kHin x kBatch.
const char* const kSpeedupKey[3][3] = {
    {"speedup_hin14_b8", "speedup_hin14_b16", "speedup_hin14_b32"},
    {"speedup_hin56_b8", "speedup_hin56_b16", "speedup_hin56_b32"},
    {"speedup_hin112_b8", "speedup_hin112_b16", "speedup_hin112_b32"}};

void print_figure() {
  const MachineSpec spec = MachineSpec::gtx1080ti();
  SimGpu gpu(spec);
  std::printf("\n=== Figure 10: batched direct convolution, speedup over "
              "cuDNN-like baseline ===\n");
  Table t({"Hin \\ batch", "8", "16", "32"});
  JsonObject json;
  json.add("bench", "fig10_batched_conv").add("machine", "gtx1080ti");
  for (std::size_t i = 0; i < kHin.size(); ++i) {
    std::vector<std::string> row{std::to_string(kHin[i])};
    for (std::size_t j = 0; j < kBatch.size(); ++j) {
      const ConvShape s = make_shape(kBatch[j], 64, kHin[i], 32, 3, 1, 1);
      const double ours = direct_tiled_count(spec, s,
                                             default_tiled_config(s, spec),
                                             Layout::kNCHW)
                              .sim_time;
      const double base = run_planned(gpu, s, kCudnnBaselinePair).sim_time;
      row.push_back(Table::fmt(base / ours, 2));
      json.add(kSpeedupKey[i][j], base / ours);
    }
    t.add_row(std::move(row));
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\npaper shape to check: speedup grows (or holds) with batch "
              "size at every H_in, as in the paper's three panels.\n");
  write_bench_json("fig10_batched_conv", json);
}

}  // namespace
}  // namespace convbound::bench

int main() {
  convbound::bench::print_figure();
  return 0;
}
