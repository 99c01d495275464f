// The immutable result of planning one convolution: which algorithm, with
// which configuration, and what the bounds layer predicts for it — the
// cuDNN-style "find algorithm + workspace, then execute" split.
#pragma once

#include <cstdint>
#include <string>

#include "convbound/conv/algorithms.hpp"

namespace convbound {

/// Everything the executor needs to run one convolution, plus the analytic
/// quantities that justified the choice. Plans are plain values: cheap to
/// copy, safe to cache and to record in per-layer reports.
struct ConvPlan {
  ConvShape shape;
  ConvAlgorithm algorithm = ConvAlgorithm::kDirectTiled;
  /// Honoured by the direct dataflows (tiled, and naive at its fixed
  /// naive_direct_config) and fused Winograd; ignored by im2col and phased
  /// Winograd.
  ConvConfig config;
  /// Winograd variant F(e x e, r x r); meaningful for the Winograd
  /// algorithms only.
  std::int64_t e = 2;
  /// True when `config` is the tuner's certified optimum (PlanMode::kTuned)
  /// rather than the analytic default.
  bool tuned = false;

  /// The paper's Eq 20/22 I/O prediction for this algorithm + configuration
  /// (elements): direct dataflows (tiled, naive) and fused Winograd; 0 for
  /// im2col and phased Winograd, which have no analytic model.
  double predicted_io_elems = 0;
  /// Best applicable I/O lower bound for the algorithm's family (elements).
  double lower_bound_elems = 0;
  /// Score used to rank this plan: the modelled time of its counted
  /// launches (count_plan), exactly what executing it on a SimGpu reports.
  double predicted_seconds = 0;

  /// Predicted I/O over the lower bound; >= 1 for a sound bound, and the
  /// paper's figure of merit for how close a dataflow is to optimal.
  double bound_ratio() const {
    return lower_bound_elems > 0 ? predicted_io_elems / lower_bound_elems
                                 : 0.0;
  }

  /// Short human label: name, Winograd variant, tuned marker. The one
  /// formatter every report/table uses.
  std::string label() const {
    std::string out = convbound::to_string(algorithm);
    if (algorithm == ConvAlgorithm::kWinogradFused ||
        algorithm == ConvAlgorithm::kWinogradPhased)
      out += " e=" + std::to_string(e);
    if (tuned) out += " (tuned)";
    return out;
  }

  std::string to_string() const {
    return "plan[" + label() + " " + config.to_string() + "]";
  }
};

/// The LaunchStats run_plan (executor.hpp) returns for `plan` on an input
/// stored in `input`, in closed form: one dispatch onto each kernel's count,
/// so nothing executes. Throws Error exactly where run_plan would. Defined
/// beside run_plan; declared here so planning depends on counting only.
LaunchStats count_plan(const MachineSpec& spec, const ConvPlan& plan,
                       Layout input);

}  // namespace convbound
