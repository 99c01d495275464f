// Quickstart: run one convolution with the I/O-optimal dataflow, compare its
// measured off-chip traffic against the paper's lower bound and against the
// cuDNN-like baseline.
//
//   ./quickstart
#include <cstdio>

#include "convbound/convbound.hpp"

int main() {
  using namespace convbound;

  // A ResNet-ish layer: 64 -> 128 channels, 56x56, 3x3, stride 1.
  ConvShape s;
  s.cin = 64;
  s.hin = s.win = 56;
  s.cout = 128;
  s.kh = s.kw = 3;
  s.pad = 1;

  SimGpu gpu(MachineSpec::v100());
  std::printf("machine: %s  (S = %lld floats/SM)\n", gpu.spec().name.c_str(),
              static_cast<long long>(gpu.spec().smem_floats()));
  std::printf("problem: %s  (%.2f GFLOP)\n", s.to_string().c_str(),
              static_cast<double>(s.flops()) / 1e9);

  const ConvProblem p = make_problem(s, /*seed=*/1);

  // Our dataflow (Section 5.2), configured by the optimality condition.
  const ConvResult ours = conv2d(gpu, p.input, p.weights, s);
  // cuDNN-like baseline: best of {naive direct, im2col+GEMM}, planned and
  // executed like any other plan.
  Planner planner;
  const ConvPlan base_plan =
      planner.plan_algorithm(gpu, s, kCudnnBaselinePair, PlannerOptions{});
  ConvResult base{Tensor4<float>(s.batch, s.cout, s.hout(), s.wout()), {}};
  base.stats = run_plan(gpu, base_plan, p.input, p.weights, base.output);

  // Verify both against the naive host reference.
  const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
  CB_CHECK(allclose(expect, ours.output, 1e-3, 1e-3));
  CB_CHECK(allclose(expect, base.output, 1e-3, 1e-3));

  const double S = static_cast<double>(gpu.spec().smem_floats());
  const double bound_bytes = direct_conv_lower_bound(s, S) * sizeof(float);

  Table t({"implementation", "sim time (us)", "GFlops", "I/O (MB)",
           "x lower bound"});
  auto add = [&](const char* name, const LaunchStats& st) {
    t.add_row({name, Table::fmt(st.sim_time * 1e6, 1),
               Table::fmt(st.gflops(), 0),
               Table::fmt(static_cast<double>(st.bytes_total()) / 1e6, 2),
               Table::fmt(static_cast<double>(st.bytes_total()) / bound_bytes,
                          2)});
  };
  add("ours (I/O-optimal dataflow)", ours.stats);
  add("cuDNN-like baseline", base.stats);
  std::printf("\n%s\n", t.to_string().c_str());
  std::printf("theoretical minimum I/O (Thm 4.12): %.2f MB\n",
              bound_bytes / 1e6);
  std::printf("speedup over baseline: %.2fx\n",
              base.stats.sim_time / ours.stats.sim_time);
  return 0;
}
