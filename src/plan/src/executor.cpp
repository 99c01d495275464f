#include "convbound/plan/executor.hpp"

#include "convbound/conv/direct.hpp"
#include "convbound/conv/winograd.hpp"
#include "convbound/obs/trace.hpp"

namespace convbound {

namespace {

LaunchStats dispatch_plan(SimGpu& gpu, const ConvPlan& plan,
                          const Tensor4<float>& input,
                          const Tensor4<float>& weights, Tensor4<float>& out) {
  const ConvShape& s = plan.shape;
  s.validate();
  CB_CHECK_MSG(out.n() == s.batch && out.c() == s.cout &&
                   out.h() == s.hout() && out.w() == s.wout(),
               "output tensor does not match plan shape " << s.to_string());
  switch (plan.algorithm) {
    case ConvAlgorithm::kDirectTiled:
    case ConvAlgorithm::kDirectNaive:  // the same dataflow at a fixed tile
      return direct_tiled_sim(gpu, input, weights, s, plan.config, out);
    case ConvAlgorithm::kIm2col:
      return im2col_sim(gpu, input, weights, s, out);
    case ConvAlgorithm::kWinogradFused:
      return winograd_fused_sim(gpu, input, weights, s, plan.e, plan.config,
                                out);
    case ConvAlgorithm::kWinogradPhased:
      return winograd_phased_sim(gpu, input, weights, s, plan.e, out);
  }
  return {};  // unreachable: every ConvAlgorithm has a kernel
}

}  // namespace

LaunchStats run_plan(SimGpu& gpu, const ConvPlan& plan,
                     const Tensor4<float>& input,
                     const Tensor4<float>& weights, Tensor4<float>& out) {
  // Per-layer trace spans: two clock reads per layer, gated so the
  // tracing-off path pays one relaxed load and no clocks.
  if (!obs::on())
    return dispatch_plan(gpu, plan, input, weights, out);
  const TraceClock::time_point t0 = TraceClock::now();
  LaunchStats stats = dispatch_plan(gpu, plan, input, weights, out);
  const TraceClock::time_point t1 = TraceClock::now();
  // value carries the modelled layer time; the span's wall duration is the
  // host-side simulation cost of the same layer.
  obs::span(TraceStage::kLayerExec, t0, t1, 0, 0, -1, stats.sim_time);
  return stats;
}

ConvExecutor::Execution ConvExecutor::execute(SimGpu& gpu,
                                              const ConvPlan& plan,
                                              const Tensor4<float>& input,
                                              const Tensor4<float>& weights) {
  const ConvShape& s = plan.shape;
  Workspace::Lease lease =
      ws_.acquire(s.batch, s.cout, s.hout(), s.wout(), Layout::kNCHW);
  LaunchStats stats = run_plan(gpu, plan, input, weights, lease.tensor());
  return Execution{stats, std::move(lease)};
}

}  // namespace convbound
