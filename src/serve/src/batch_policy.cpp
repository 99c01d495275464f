#include "convbound/serve/batch_policy.hpp"

#include "convbound/util/check.hpp"

namespace convbound {

namespace {

// The smallest bucket within this fraction of the best feasible
// per-request time is the knee.
constexpr double kKneeTolerance = 0.02;

}  // namespace

BucketScore score_batch_bucket(const ServedModel& model,
                               const MachineSpec& spec, Planner& planner,
                               const PlannerOptions& plan_opts,
                               double max_delay_seconds, std::int64_t bucket,
                               const BatchPolicyOptions& opts) {
  CB_CHECK_MSG(bucket >= 1, "bucket must be >= 1");
  SimGpu gpu(spec);  // planning reads only the spec
  BucketScore score;
  score.bucket = bucket;
  for (const auto& layer : model.layers)
    score.predicted_batch_seconds +=
        planner.plan(gpu, shape_at_batch(layer.shape, bucket), plan_opts)
            .predicted_seconds;
  score.predicted_seconds_per_request =
      score.predicted_batch_seconds / static_cast<double>(bucket);
  // Feasibility is end-to-end: the scheduler may hold the group open for
  // its whole formation window before the batch starts, so the budget must
  // cover max_delay + the predicted batch time, not the batch time alone.
  score.feasible = opts.latency_budget_seconds <= 0 ||
                   max_delay_seconds + score.predicted_batch_seconds <=
                       opts.latency_budget_seconds;
  return score;
}

BucketChoice choose_batch_bucket(const ServedModel& model,
                                 const MachineSpec& spec, Planner& planner,
                                 const PlannerOptions& plan_opts,
                                 double max_delay_seconds,
                                 const BatchPolicyOptions& opts) {
  CB_CHECK_MSG(opts.max_bucket >= 1, "max_bucket must be >= 1");
  BucketChoice choice;
  for (std::int64_t b = 1; b <= opts.max_bucket; b *= 2)
    choice.scores.push_back(score_batch_bucket(
        model, spec, planner, plan_opts, max_delay_seconds, b, opts));

  double best = 0;
  bool have_best = false;
  for (const auto& s : choice.scores) {
    if (!s.feasible) continue;
    if (!have_best || s.predicted_seconds_per_request < best) {
      best = s.predicted_seconds_per_request;
      have_best = true;
    }
  }
  // Bucket 1 is always a valid fallback even when every candidate busts the
  // latency budget (a model that slow cannot be served any faster unbatched).
  choice.bucket = 1;
  if (have_best) {
    for (auto& s : choice.scores) {
      if (s.feasible &&
          s.predicted_seconds_per_request <=
              best * (1.0 + kKneeTolerance)) {
        choice.bucket = s.bucket;
        break;  // smallest bucket at the knee
      }
    }
  }
  for (auto& s : choice.scores) s.chosen = s.bucket == choice.bucket;
  return choice;
}

}  // namespace convbound
