#include "convbound/nets/inference.hpp"

namespace convbound {

ModelReport run_model(SimGpu& gpu, const std::string& model_name,
                      const std::vector<ConvLayer>& layers,
                      ModelStrategy strategy, Planner& planner) {
  ModelReport report;
  report.model = model_name;
  report.strategy = strategy;
  PlannerOptions opts;
  opts.candidates = strategy == ModelStrategy::kBaseline
                        ? CandidateSet::kBaseline
                        : CandidateSet::kOurs;

  for (const auto& layer : layers) {
    const ConvShape& s = layer.shape;
    // Plan once per (machine, shape, strategy) — memoised in the planner —
    // then count the plan on NCHW input, as run_plan would execute it.
    const ConvPlan plan = planner.plan(gpu, s, opts);
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

}  // namespace convbound
