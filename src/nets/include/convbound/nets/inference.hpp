// End-to-end (conv-only) model inference on the simulated machine,
// comparing the paper's dataflows against the cuDNN-like baseline.
//
// All per-layer algorithm selection goes through the plan layer: each layer
// is planned once (the caller's Planner memoises per machine + shape +
// strategy, also across run_model calls), and its
// modelled time and traffic are the closed-form count of that plan
// (count_plan), the LaunchStats executing it would report. Nothing
// executes; run_plan remains the oracle the tests hold the count to.
#pragma once

#include "convbound/machine/sim_gpu.hpp"
#include "convbound/nets/models.hpp"
#include "convbound/plan/planner.hpp"

namespace convbound {

enum class ModelStrategy {
  kBaseline,      ///< cuDNN-like: best of {direct-naive, im2col, phased wino}
  kOursDefault,   ///< our dataflows with the analytic default configuration
};

struct LayerTiming {
  std::string name;
  ConvShape shape;
  double seconds = 0;
  std::string algorithm;
  std::uint64_t io_bytes = 0;
  /// The counted plan: algorithm, config, Winograd e, bound ratio.
  ConvPlan plan;
};

struct ModelReport {
  std::string model;
  ModelStrategy strategy{};
  double total_seconds = 0;
  std::vector<LayerTiming> layers;
};

/// Plans every conv layer with the chosen strategy through `planner` and
/// counts its plan.
ModelReport run_model(SimGpu& gpu, const std::string& model_name,
                      const std::vector<ConvLayer>& layers,
                      ModelStrategy strategy, Planner& planner);

}  // namespace convbound
