// End-to-end (conv-only) model inference on the simulated machine,
// comparing the paper's tuned dataflows against the cuDNN-like baseline.
//
// All per-layer algorithm selection goes through the plan layer: each layer
// is planned once (Planner memoises per machine + shape + strategy), and its
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
  kOursTuned,     ///< our dataflows with a per-layer ATE tuning pass
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

/// Long-lived planning state for repeated inference: the tune cache the
/// planner consults and the memoised plans. Keep one session alive across
/// run_model calls and each layer is planned (and tuned) once.
class InferenceSession {
 public:
  InferenceSession() : planner_(&cache_) {}
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  Planner& planner() { return planner_; }

 private:
  TuneCache cache_;
  Planner planner_;
};

/// Plans every conv layer with the chosen strategy through `session` and
/// counts its plan. For kOursTuned, `tune_budget` measurement trials are
/// spent per layer on a tune-cache miss (tuning time is not part of the
/// reported inference time, as in the paper).
ModelReport run_model(SimGpu& gpu, const std::string& model_name,
                      const std::vector<ConvLayer>& layers,
                      ModelStrategy strategy, InferenceSession& session,
                      int tune_budget = 32, std::uint64_t seed = 42);

/// Convenience overload with a throwaway session (plans and tuned configs
/// are not reused across calls).
ModelReport run_model(SimGpu& gpu, const std::string& model_name,
                      const std::vector<ConvLayer>& layers,
                      ModelStrategy strategy, int tune_budget = 32,
                      std::uint64_t seed = 42);

}  // namespace convbound
