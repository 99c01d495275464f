// Cross-module integration: simulated executions vs the analytic theory,
// pebble game vs the simulator, tuned configs vs the optimality condition.
#include <gtest/gtest.h>

#include "convbound/convbound.hpp"

namespace convbound {
namespace {

TEST(Integration, SimulatedIoRespectsLowerBoundAcrossShapes) {
  SimGpu gpu(MachineSpec::v100());
  const double S = static_cast<double>(gpu.spec().smem_floats());
  for (std::int64_t hw : {14, 28}) {
    for (std::int64_t c : {16, 64}) {
      ConvShape s;
      s.cin = c;
      s.hin = s.win = hw;
      s.cout = c;
      s.kh = s.kw = 3;
      s.pad = 1;
      const ConvProblem p = make_problem(s, 1);
      Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
      const ConvConfig cfg = default_tiled_config(s, gpu.spec());
      const auto stats =
          direct_tiled_sim(gpu, p.input, p.weights, s, cfg, out);
      const double q_elems = static_cast<double>(stats.bytes_total()) / 4.0;
      EXPECT_GE(q_elems, direct_conv_lower_bound(s, S)) << s.to_string();
    }
  }
}

TEST(Integration, DataflowIoWithinConstantFactorOfBound) {
  // The Section 5.2 design claim: with N_p processors and per-block memory
  // S/N_p, counted I/O tracks Equation (21) within a small factor.
  SimGpu gpu(MachineSpec::gtx1080ti());
  ConvShape s;
  s.cin = 128;
  s.hin = s.win = 56;
  s.cout = 128;
  s.kh = s.kw = 3;
  s.pad = 1;
  const ConvProblem p = make_problem(s, 2);
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvConfig cfg = default_tiled_config(s, gpu.spec());
  const auto stats = direct_tiled_sim(gpu, p.input, p.weights, s, cfg, out);
  const double q_elems = static_cast<double>(stats.bytes_total()) / 4.0;
  const double predicted = direct_dataflow_reads(s, cfg.x, cfg.y, cfg.z) +
                           static_cast<double>(s.output_elems());
  EXPECT_LT(q_elems / predicted, 2.0);
  EXPECT_GT(q_elems / predicted, 0.5);
}

TEST(Integration, PebbleGameConfirmsDataflowOrderQuality) {
  // Game-measured I/O of the dataflow-ordered DAG sits within a small
  // multiple of the analytic lower bound (near-optimality, Section 5).
  ConvDagShape ds;
  ds.cin = 8;
  ds.hin = ds.win = 10;
  ds.cout = 8;
  const std::size_t S = 512;
  // R = 9, pick x*y = R*z: (6,6,4).
  const auto game =
      play_pebble_game(direct_conv_dag(ds, TileSpec{6, 6, 4}), S);

  ConvShape s;
  s.cin = ds.cin;
  s.hin = ds.hin;
  s.win = ds.win;
  s.cout = ds.cout;
  // At this scale the exact proof form is vacuous (|V| < T(2S)), so gauge
  // near-optimality against the leading term.
  const double bound =
      direct_conv_lower_bound_leading(s, static_cast<double>(S));
  EXPECT_GE(static_cast<double>(game.total()), bound);
  EXPECT_LT(static_cast<double>(game.total()), 64.0 * bound);
}

TEST(Integration, TunedConfigNearOptimalityCondition) {
  SimGpu gpu(MachineSpec::v100());
  ConvShape s;
  s.cin = 64;
  s.hin = s.win = 28;
  s.cout = 64;
  s.kh = s.kw = 3;
  s.pad = 1;
  AutotuneOptions opts;
  opts.budget = 40;
  const auto out = autotune_conv(gpu, s, opts);
  // The pruned domain forces configurations near x*y = R*z; the winner must
  // satisfy the domain's band.
  EXPECT_TRUE(out.domain.contains(out.result.best));
  const double sb_elems =
      static_cast<double>(out.result.best.smem_budget) / 4.0;
  EXPECT_LE(static_cast<double>(out.result.best.z),
            std::sqrt(sb_elems / s.reuse()) + 1);
}

TEST(Integration, SpeedupShapeDirectVsCudnn) {
  // Fig. 9's qualitative claim on one point: for a mid-size layer our tiled
  // dataflow beats the cuDNN-like baseline on simulated time.
  SimGpu gpu(MachineSpec::gtx1080ti());
  ConvShape s;
  s.cin = 64;
  s.hin = s.win = 56;
  s.cout = 128;
  s.kh = s.kw = 3;
  s.pad = 1;
  const ConvProblem p = make_problem(s, 9);
  Planner planner;
  const PlannerOptions opts;
  Tensor4<float> ours(s.batch, s.cout, s.hout(), s.wout());
  Tensor4<float> base(s.batch, s.cout, s.hout(), s.wout());
  const LaunchStats ours_stats = run_plan(
      gpu, planner.plan_algorithm(gpu, s, {ConvAlgorithm::kDirectTiled}, opts),
      p.input, p.weights, ours);
  const LaunchStats base_stats = run_plan(
      gpu, planner.plan_algorithm(gpu, s, kCudnnBaselinePair, opts), p.input,
      p.weights, base);
  EXPECT_LT(ours_stats.sim_time, base_stats.sim_time);
  EXPECT_TRUE(allclose(ours, base, 1e-3, 1e-3));
}

TEST(Integration, WinogradTradesIoForFlops) {
  // Winograd's DAG moves more values per output (transform trees), so its
  // I/O bound sits *above* the direct one — but it needs far fewer
  // multiplications. Both sides of that trade must show up in simulation.
  ConvShape s;
  s.cin = 32;
  s.hin = s.win = 28;
  s.cout = 32;
  s.kh = s.kw = 3;
  s.pad = 1;
  const double S = 24 * 1024;
  EXPECT_GT(winograd_lower_bound_leading(s, 2, S),
            direct_conv_lower_bound_leading(s, S));

  SimGpu gpu(MachineSpec::v100());
  const ConvProblem p = make_problem(s, 4);
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const auto direct = direct_tiled_sim(gpu, p.input, p.weights, s,
                                       default_tiled_config(s, gpu.spec()),
                                       out);
  const auto wino = winograd_fused_sim(
      gpu, p.input, p.weights, s, 4,
      default_winograd_config(s, 4, gpu.spec()), out);
  EXPECT_LT(wino.flops, direct.flops);
}

TEST(Integration, StrideWeakensDataflowAdvantage) {
  // Fig. 9's third observation: benefits decrease as stride grows, because
  // R = k^2/mu^2 shrinks. Compare predicted read amplification ratios.
  ConvShape s;
  s.cin = 128;
  s.hin = s.win = 57;
  s.cout = 128;
  s.kh = s.kw = 3;
  const double S = 12 * 1024;
  s.stride = 1;
  const double gain1 =
      direct_conv_lower_bound_leading(s, S) / static_cast<double>(s.flops());
  s.stride = 2;
  const double gain2 =
      direct_conv_lower_bound_leading(s, S) / static_cast<double>(s.flops());
  // Normalised I/O per flop grows with stride (less reuse available).
  EXPECT_GT(gain2, gain1);
}

}  // namespace
}  // namespace convbound
