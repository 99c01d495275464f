// Bound-guided micro-batch bucket selection.
//
// Instead of a fixed batch-size constant, the scheduler's bucket per model
// is chosen from the bounds layer: every candidate bucket is scored with the
// analytic planner (Eq 20/22 dataflow I/O predictions + roofline + launch
// overhead — the same machinery behind bench/fig10_batched_conv), and the
// smallest bucket within 2% of the best feasible per-request time wins.
// That lands on the knee of the amortisation curve: larger buckets would
// add padding waste and batch latency for <2% predicted gain, and buckets
// whose whole-batch time exceeds the latency budget are rejected outright.
#pragma once

#include <cstdint>
#include <vector>

#include "convbound/machine/machine_spec.hpp"
#include "convbound/serve/model.hpp"

namespace convbound {

struct BatchPolicyOptions {
  /// Largest candidate bucket (candidates are 1, 2, 4, ... <= max_bucket).
  std::int64_t max_bucket = 8;
  /// Reject buckets whose predicted request latency exceeds this (seconds;
  /// 0 = unconstrained). A request can wait up to the scheduler's group
  /// formation window before its batch even starts, so the figure compared
  /// is max_delay_seconds + the predicted whole-batch time — a bucket whose
  /// batch alone fits the budget is still infeasible if the formation delay
  /// eats the headroom.
  double latency_budget_seconds = 20e-3;
  /// The scheduler's group-formation window (its max_delay, seconds);
  /// ServeEngine charges ServingOptions::max_delay into its own copy.
  double max_delay_seconds = 0;
};

/// One scored candidate bucket, kept for reporting (CLI/bench tables).
struct BucketScore {
  std::int64_t bucket = 1;
  /// Sum over layers of the analytic plan's predicted time / bucket.
  double predicted_seconds_per_request = 0;
  /// Predicted whole-batch accelerator time.
  double predicted_batch_seconds = 0;
  /// Bounds-layer I/O prediction per request (elements).
  double predicted_io_elems_per_request = 0;
  bool feasible = true;
  bool chosen = false;
};

struct BucketChoice {
  std::int64_t bucket = 1;
  std::vector<BucketScore> scores;
};

BucketChoice choose_batch_bucket(const ServedModel& model,
                                 const MachineSpec& spec,
                                 const BatchPolicyOptions& opts = {});

/// Scores one specific bucket (used to report forced off-ladder buckets
/// with the same analytic predictions as the scored candidates).
BucketScore score_batch_bucket(const ServedModel& model,
                               const MachineSpec& spec, std::int64_t bucket,
                               const BatchPolicyOptions& opts = {});

}  // namespace convbound
