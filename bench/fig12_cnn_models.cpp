// Figure 12: end-to-end conv inference time of five CNN models, our
// dataflows vs the cuDNN-like baseline, V100 machine model.
//
// Both systems select per-layer algorithms through the plan layer: the
// baseline plans over {naive direct, im2col, phased Winograd}, ours over
// {tiled direct, fused Winograd} with analytically derived configurations
// (the tuner's starting point — tuning every layer of five models is left
// to examples/autotune_layer to keep this bench fast). Each model reuses an
// InferenceSession, so each layer is planned once; its time is the
// closed-form count of its plan (run_model). No kernel executes and there
// is nothing to time: the figure prints its rows directly.
//
// Emits BENCH_fig12_cnn_models.json (per-model seconds per strategy +
// speedup) so the perf trajectory covers end-to-end inference, not just
// tuning.
#include "bench_util.hpp"

namespace convbound::bench {
namespace {

void print_figure() {
  std::printf("\n=== Figure 12: end-to-end conv inference time (ms), V100 "
              "model ===\n");
  Table t({"model", "cuDNN-like (ms)", "ours (ms)", "speedup"});
  double product = 1;
  std::vector<std::string> models;
  const auto zoo = model_zoo(1);
  for (const auto& [name, layers] : zoo) {
    SimGpu gpu(MachineSpec::v100());
    InferenceSession session;
    const double base_ms =
        run_model(gpu, name, layers, ModelStrategy::kBaseline, session)
            .total_seconds *
        1e3;
    const double ours_ms =
        run_model(gpu, name, layers, ModelStrategy::kOursDefault, session)
            .total_seconds *
        1e3;
    t.add_row({name, Table::fmt(base_ms, 2), Table::fmt(ours_ms, 2),
               Table::fmt(base_ms / ours_ms, 2)});
    product *= base_ms / ours_ms;
    models.push_back(
        JsonObject()
            .add("name", name)
            .add("conv_gflop", static_cast<double>(model_flops(layers)) / 1e9)
            .add("baseline_seconds", base_ms * 1e-3)
            .add("ours_default_seconds", ours_ms * 1e-3)
            .add("speedup", base_ms / ours_ms)
            .to_string());
  }
  const double geomean =
      std::pow(product, 1.0 / static_cast<double>(zoo.size()));
  std::printf("%s", t.to_string().c_str());
  std::printf("\npaper reference points: SqueezeNet 2.67x, Vgg-19 1.09x, "
              "ResNet-18 1.02x, ResNet-34 1.09x, Inception-v3 1.23x.\n");

  JsonObject out;
  out.add("bench", "fig12_cnn_models")
      .add("machine", "v100")
      .add("geomean_speedup", geomean)
      .add_raw("models", json_array(models));
  write_bench_json("fig12_cnn_models", out);
}

}  // namespace
}  // namespace convbound::bench

int main() {
  convbound::bench::print_figure();
  return 0;
}
