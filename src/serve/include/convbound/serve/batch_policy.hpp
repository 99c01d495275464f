// Bound-guided micro-batch bucket selection.
//
// Instead of a fixed batch-size constant, the scheduler's bucket per model
// is chosen from the plans that serve it: every candidate bucket is planned
// with the caller's Planner and options (each layer scored by the modelled
// time of its counted launches, the same plans the warm sessions then run),
// and the smallest bucket within 2% of the best feasible per-request time
// wins. That lands on the knee of the amortisation curve: larger buckets
// would add padding waste and batch latency for <2% predicted gain, and
// buckets whose whole-batch time exceeds the latency budget are rejected
// outright.
#pragma once

#include <cstdint>
#include <vector>

#include "convbound/plan/planner.hpp"
#include "convbound/serve/model.hpp"

namespace convbound {

struct BatchPolicyOptions {
  /// Largest candidate bucket (candidates are 1, 2, 4, ... <= max_bucket).
  std::int64_t max_bucket = 8;
  /// Reject buckets whose predicted request latency exceeds this (seconds;
  /// 0 = unconstrained). A request can wait up to the scheduler's group
  /// formation window (its max delay) before its batch even starts, so the
  /// figure compared is that delay + the predicted whole-batch time — a
  /// bucket whose batch alone fits the budget is still infeasible if the
  /// formation delay eats the headroom.
  double latency_budget_seconds = 20e-3;
};

/// One scored candidate bucket, kept for reporting (CLI/bench tables).
struct BucketScore {
  std::int64_t bucket = 1;
  /// Predicted whole-batch time / bucket.
  double predicted_seconds_per_request = 0;
  /// Predicted whole-batch accelerator time: the sum over layers of each
  /// plan's counted time.
  double predicted_batch_seconds = 0;
  bool feasible = true;
  bool chosen = false;
};

struct BucketChoice {
  std::int64_t bucket = 1;
  std::vector<BucketScore> scores;
};

/// Scores buckets 1, 2, 4, ... <= opts.max_bucket of `model` with
/// `planner` under `plan_opts` on `spec` (so the planner's memo then holds
/// every scored plan) and picks the knee. `max_delay_seconds` is the
/// scheduler's group-formation window, charged against the latency budget.
BucketChoice choose_batch_bucket(const ServedModel& model,
                                 const MachineSpec& spec, Planner& planner,
                                 const PlannerOptions& plan_opts,
                                 double max_delay_seconds,
                                 const BatchPolicyOptions& opts = {});

/// Scores one specific bucket the same way (used to report forced
/// off-ladder buckets beside the scored candidates).
BucketScore score_batch_bucket(const ServedModel& model,
                               const MachineSpec& spec, Planner& planner,
                               const PlannerOptions& plan_opts,
                               double max_delay_seconds, std::int64_t bucket,
                               const BatchPolicyOptions& opts = {});

}  // namespace convbound
