// End-to-end conv inference of a CNN model: our dataflows vs the cuDNN-like
// baseline, per layer (a runnable slice of Figure 12).
//
//   ./cnn_inference [squeezenet|resnet18|alexnet|mobilenet]
#include <cstdio>
#include <cstring>

#include "convbound/convbound.hpp"

int main(int argc, char** argv) {
  using namespace convbound;
  const char* which = argc > 1 ? argv[1] : "squeezenet";

  std::vector<ConvLayer> layers;
  if (std::strcmp(which, "resnet18") == 0) {
    layers = resnet18();
  } else if (std::strcmp(which, "alexnet") == 0) {
    layers = alexnet();
  } else if (std::strcmp(which, "mobilenet") == 0) {
    layers = mobilenet_v1();
  } else {
    which = "squeezenet";
    layers = squeezenet_v10();
  }

  SimGpu gpu(MachineSpec::v100());
  std::printf("%s: %zu conv layers, %.2f GFLOP total, on %s\n\n", which,
              layers.size(), static_cast<double>(model_flops(layers)) / 1e9,
              gpu.spec().name.c_str());

  // One long-lived session carries the plan memo and tune cache across both
  // strategy runs; each layer's time is the count of its plan.
  InferenceSession session;
  const ModelReport base =
      run_model(gpu, which, layers, ModelStrategy::kBaseline, session);
  const ModelReport ours =
      run_model(gpu, which, layers, ModelStrategy::kOursDefault, session);

  Table t({"layer", "shape", "baseline (us)", "ours (us)", "speedup",
           "winning algo"});
  for (std::size_t i = 0; i < layers.size(); ++i) {
    t.add_row({base.layers[i].name, layers[i].shape.to_string(),
               Table::fmt(base.layers[i].seconds * 1e6, 1),
               Table::fmt(ours.layers[i].seconds * 1e6, 1),
               Table::fmt(base.layers[i].seconds / ours.layers[i].seconds, 2),
               ours.layers[i].algorithm});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("total: baseline %.3f ms, ours %.3f ms  ->  %.2fx speedup\n",
              base.total_seconds * 1e3, ours.total_seconds * 1e3,
              base.total_seconds / ours.total_seconds);
  return 0;
}
