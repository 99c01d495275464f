#include "convbound/nets/inference.hpp"

namespace convbound {

namespace {

PlannerOptions options_for(ModelStrategy strategy, int tune_budget,
                           std::uint64_t seed) {
  PlannerOptions opts;
  opts.seed = seed;
  switch (strategy) {
    case ModelStrategy::kBaseline:
      opts.candidates = CandidateSet::kBaseline;
      opts.mode = PlanMode::kMeasured;
      break;
    case ModelStrategy::kOursDefault:
      opts.candidates = CandidateSet::kOurs;
      opts.mode = PlanMode::kMeasured;
      break;
    case ModelStrategy::kOursTuned:
      opts.candidates = CandidateSet::kOurs;
      opts.mode = PlanMode::kTuned;
      opts.tune_budget = tune_budget;
      break;
  }
  return opts;
}

}  // namespace

ModelReport run_model(SimGpu& gpu, const std::string& model_name,
                      const std::vector<ConvLayer>& layers,
                      ModelStrategy strategy, InferenceSession& session,
                      int tune_budget, std::uint64_t seed) {
  ModelReport report;
  report.model = model_name;
  report.strategy = strategy;
  const PlannerOptions opts = options_for(strategy, tune_budget, seed);

  for (const auto& layer : layers) {
    const ConvShape& s = layer.shape;
    // Plan once per (machine, shape, strategy) — memoised in the session —
    // then count the plan on NCHW input, as run_plan would execute it.
    const ConvPlan plan = session.planner().plan(gpu, s, opts);
    const LaunchStats stats = count_plan(gpu.spec(), plan, Layout::kNCHW);

    LayerTiming t;
    t.name = layer.name;
    t.shape = s;
    t.seconds = stats.sim_time;
    t.algorithm = plan.label();
    t.io_bytes = stats.bytes_total();
    t.plan = plan;
    report.total_seconds += t.seconds;
    report.layers.push_back(std::move(t));
  }
  return report;
}

ModelReport run_model(SimGpu& gpu, const std::string& model_name,
                      const std::vector<ConvLayer>& layers,
                      ModelStrategy strategy, int tune_budget,
                      std::uint64_t seed) {
  InferenceSession session;
  return run_model(gpu, model_name, layers, strategy, session, tune_budget,
                   seed);
}

}  // namespace convbound
