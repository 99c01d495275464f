// Figure 10: batched direct convolution — speedup of the dataflow over the
// cuDNN-like baseline as batch size grows, for three input sizes.
//
// Paper: H_in in {14, 56, 112}, batch in {32, 64, 128}, C_out = 128,
// C_in = 256, 3x3, mu = 1, 1080Ti.
// Scaled: C_in = 64, C_out = 32, batch in {8, 16, 32}.
#include "bench_util.hpp"

namespace convbound::bench {
namespace {

const std::vector<std::int64_t> kHin = {14, 56, 112};
const std::vector<std::int64_t> kBatch = {8, 16, 32};

std::string key(std::int64_t hin, std::int64_t batch, const char* impl) {
  return "fig10/hin" + std::to_string(hin) + "/b" + std::to_string(batch) +
         "/" + impl;
}

void register_all() {
  for (std::int64_t hin : kHin) {
    for (std::int64_t batch : kBatch) {
      const ConvShape s = make_shape(batch, 64, hin, 32, 3, 1, 1);
      register_point(key(hin, batch, "ours"), [s] {
        SimGpu gpu(MachineSpec::gtx1080ti());
        const ConvProblem p = make_problem(s, 1);
        Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
        const ConvConfig cfg = default_tiled_config(s, gpu.spec());
        return direct_tiled_sim(gpu, p.input, p.weights, s, cfg, out);
      });
      register_point(key(hin, batch, "cudnn"), [s] {
        SimGpu gpu(MachineSpec::gtx1080ti());
        return run_planned(gpu, s, kCudnnBaselinePair, 1);
      });
    }
  }
}

void print_summary() {
  auto& reg = Registry::instance();
  std::printf("\n=== Figure 10: batched direct convolution, speedup over "
              "cuDNN-like baseline ===\n");
  Table t({"Hin \\ batch", "8", "16", "32"});
  for (std::int64_t hin : kHin) {
    std::vector<std::string> row{std::to_string(hin)};
    for (std::int64_t batch : kBatch) {
      const double ours = reg.get(key(hin, batch, "ours") + "/time");
      const double base = reg.get(key(hin, batch, "cudnn") + "/time");
      row.push_back(Table::fmt(base / ours, 2));
    }
    t.add_row(std::move(row));
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\npaper shape to check: speedup grows (or holds) with batch "
              "size at every H_in, as in the paper's three panels.\n");
}

}  // namespace
}  // namespace convbound::bench

int main(int argc, char** argv) {
  convbound::bench::register_all();
  return convbound::bench::run_all(argc, argv,
                                   convbound::bench::print_summary);
}
