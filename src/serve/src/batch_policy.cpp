#include "convbound/serve/batch_policy.hpp"

#include "convbound/machine/sim_gpu.hpp"
#include "convbound/plan/planner.hpp"
#include "convbound/util/check.hpp"

namespace convbound {

namespace {

// The smallest bucket within this fraction of the best feasible
// per-request time is the knee.
constexpr double kKneeTolerance = 0.02;

BucketScore score_one(Planner& planner, SimGpu& gpu, const ServedModel& model,
                      std::int64_t b, const BatchPolicyOptions& opts) {
  PlannerOptions popts;
  popts.mode = PlanMode::kAnalytic;  // bounds predictions only, no execution
  popts.candidates = CandidateSet::kOurs;
  BucketScore score;
  score.bucket = b;
  for (const auto& layer : model.layers) {
    const ConvPlan p =
        planner.plan(gpu, shape_at_batch(layer.shape, b), popts);
    score.predicted_batch_seconds += p.predicted_seconds;
    score.predicted_io_elems_per_request +=
        p.predicted_io_elems / static_cast<double>(b);
  }
  score.predicted_seconds_per_request =
      score.predicted_batch_seconds / static_cast<double>(b);
  // Feasibility is end-to-end: the scheduler may hold the group open for
  // its whole formation window before the batch starts, so the budget must
  // cover max_delay + the predicted batch time, not the batch time alone.
  score.feasible =
      opts.latency_budget_seconds <= 0 ||
      opts.max_delay_seconds + score.predicted_batch_seconds <=
          opts.latency_budget_seconds;
  return score;
}

}  // namespace

BucketScore score_batch_bucket(const ServedModel& model,
                               const MachineSpec& spec, std::int64_t bucket,
                               const BatchPolicyOptions& opts) {
  CB_CHECK_MSG(bucket >= 1, "bucket must be >= 1");
  SimGpu gpu(spec);
  Planner planner;
  return score_one(planner, gpu, model, bucket, opts);
}

BucketChoice choose_batch_bucket(const ServedModel& model,
                                 const MachineSpec& spec,
                                 const BatchPolicyOptions& opts) {
  CB_CHECK_MSG(opts.max_bucket >= 1, "max_bucket must be >= 1");
  SimGpu gpu(spec);
  Planner planner;

  BucketChoice choice;
  for (std::int64_t b = 1; b <= opts.max_bucket; b *= 2)
    choice.scores.push_back(score_one(planner, gpu, model, b, opts));

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
