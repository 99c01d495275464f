#include "convbound/convbound.hpp"

namespace convbound {

ConvResult conv2d(SimGpu& gpu, const Tensor4<float>& input,
                  const Tensor4<float>& weights, const ConvShape& s) {
  // One-shot convenience path: plan (measured, our dataflows) and execute.
  // Callers with repeated traffic should hold their own Planner/Executor to
  // amortise planning and reuse the workspace arena.
  Planner planner;
  const ConvPlan plan = planner.plan(gpu, s, PlannerOptions{});
  ConvResult res{Tensor4<float>(s.batch, s.cout, s.hout(), s.wout()), {}};
  res.stats = run_plan(gpu, plan, input, weights, res.output);
  return res;
}

}  // namespace convbound
