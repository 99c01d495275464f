// One-call auto-tuning entry point (the paper's Section 6.3 loop), a thin
// layer over the Tuner API: pick a strategy from the registry and run it
// against the counting measurer.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "convbound/tune/registry.hpp"

namespace convbound {

struct AutotuneOptions {
  int budget = 96;            ///< measurement trials
  std::uint64_t seed = 1;
  bool winograd = false;
  std::int64_t e = 2;
  bool prune_with_optimality = true;
  /// Strategy id for make_tuner: "ate" (default) | "bnb" | "sa" | "ga" |
  /// "random".
  std::string tuner = "ate";
  AteTuner::Params ate;
};

struct AutotuneOutcome {
  TuneResult result;
  SearchDomain domain;
  double best_gflops = 0;
  /// Strategy-specific counters (bnb pruning stats; empty otherwise).
  std::vector<std::pair<std::string, double>> tuner_stats;
  /// The strategy proved no better configuration exists (bnb only).
  bool proven_optimal = false;
};

/// Builds the (pruned) domain for `shape` on `gpu`'s machine, runs the
/// selected tuner (seeded with the analytic dataflow default) and returns
/// the best configuration + trace.
AutotuneOutcome autotune_conv(SimGpu& gpu, const ConvShape& shape,
                              const AutotuneOptions& opts = {});

}  // namespace convbound
