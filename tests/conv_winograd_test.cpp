#include <gtest/gtest.h>

#include "convbound/conv/algorithms.hpp"
#include "convbound/conv/reference.hpp"
#include "convbound/conv/winograd.hpp"
#include "convbound/conv/winograd_transform.hpp"
#include "convbound/plan/planner.hpp"

namespace convbound {
namespace {

ConvShape shape(std::int64_t b, std::int64_t cin, std::int64_t hw,
                std::int64_t cout, std::int64_t k, std::int64_t pad) {
  ConvShape s;
  s.batch = b;
  s.cin = cin;
  s.hin = s.win = hw;
  s.cout = cout;
  s.kh = s.kw = k;
  s.stride = 1;
  s.pad = pad;
  return s;
}

// ------------------------------------------------------------ transforms --

struct ErPair {
  std::int64_t e, r;
};

class TransformConstruction : public ::testing::TestWithParam<ErPair> {};

TEST_P(TransformConstruction, OneDimensionalIdentityHolds) {
  // make_winograd_transform self-verifies the correlation identity and
  // throws on failure; surviving construction is the assertion.
  const auto [e, r] = GetParam();
  const WinogradTransform t = make_winograd_transform(e, r);
  EXPECT_EQ(t.a, e + r - 1);
  EXPECT_EQ(t.AT.size(), static_cast<std::size_t>(e * t.a));
  EXPECT_EQ(t.G.size(), static_cast<std::size_t>(t.a * r));
  EXPECT_EQ(t.BT.size(), static_cast<std::size_t>(t.a * t.a));
}

INSTANTIATE_TEST_SUITE_P(Pairs, TransformConstruction,
                         ::testing::Values(ErPair{2, 2}, ErPair{2, 3},
                                           ErPair{3, 2}, ErPair{3, 3},
                                           ErPair{4, 3}, ErPair{2, 5},
                                           ErPair{6, 3}, ErPair{4, 4}));

TEST(TransformConstruction, F23MatchesClassicMatrices) {
  // The e=2, r=3 transform over points {0, 1, -1} must reproduce the
  // classic BT up to the per-point scaling freedom; verify BT's first row
  // (point 0): l_0 = (x^2-1)/(-1) => [1, 0, -1, 0] exactly.
  const auto t = make_winograd_transform(2, 3);
  EXPECT_NEAR(t.bt(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(t.bt(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(t.bt(0, 2), -1.0, 1e-12);
  EXPECT_NEAR(t.bt(0, 3), 0.0, 1e-12);
}

TEST(TransformConstruction, RejectsOversizedTiles) {
  EXPECT_THROW(make_winograd_transform(8, 5), Error);
}

// ------------------------------------------------------------ reference --

struct WinoRefCase {
  ConvShape s;
  std::int64_t e;
};

class WinogradRefCorrectness : public ::testing::TestWithParam<WinoRefCase> {};

TEST_P(WinogradRefCorrectness, MatchesDirectReference) {
  const auto& p = GetParam();
  const ConvProblem prob = make_problem(p.s, 31);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, p.s);
  const Tensor4<float> got = winograd_ref(prob.input, prob.weights, p.s, p.e);
  EXPECT_TRUE(allclose(expect, got, 1e-3, 1e-3))
      << p.s.to_string() << " e=" << p.e
      << " maxdiff=" << max_abs_diff(expect, got);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WinogradRefCorrectness,
    ::testing::Values(
        WinoRefCase{shape(1, 1, 6, 1, 3, 0), 2},
        WinoRefCase{shape(1, 3, 8, 4, 3, 1), 2},
        WinoRefCase{shape(1, 3, 9, 2, 3, 1), 4},    // F(4,3)
        WinoRefCase{shape(1, 2, 9, 3, 2, 0), 3},    // F(3,2)
        WinoRefCase{shape(2, 2, 10, 3, 3, 1), 2},   // batch
        WinoRefCase{shape(1, 2, 11, 2, 3, 1), 2},   // ragged tiles
        WinoRefCase{shape(1, 2, 12, 2, 5, 2), 2},   // 5x5 kernel
        WinoRefCase{shape(1, 4, 13, 4, 3, 1), 6}));  // F(6,3)

// -------------------------------------------------------------- kernels --

struct WinoSimCase {
  ConvShape s;
  std::int64_t e;
  ConvConfig cfg;
};

ConvConfig wcfg(std::int64_t x, std::int64_t y, std::int64_t z,
                Layout layout = Layout::kNCHW) {
  ConvConfig c;
  c.x = x;
  c.y = y;
  c.z = z;
  c.layout = layout;
  return c;
}

class WinogradFusedCorrectness
    : public ::testing::TestWithParam<WinoSimCase> {};

TEST_P(WinogradFusedCorrectness, MatchesDirectReference) {
  const auto& p = GetParam();
  const ConvProblem prob = make_problem(p.s, 37, p.cfg.layout);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, p.s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(p.s.batch, p.s.cout, p.s.hout(), p.s.wout());
  winograd_fused_sim(gpu, prob.input, prob.weights, p.s, p.e, p.cfg, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3))
      << p.s.to_string() << " e=" << p.e << " " << p.cfg.to_string()
      << " maxdiff=" << max_abs_diff(expect, out);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WinogradFusedCorrectness,
    ::testing::Values(
        WinoSimCase{shape(1, 1, 6, 1, 3, 0), 2, wcfg(2, 2, 1)},
        WinoSimCase{shape(1, 3, 8, 4, 3, 1), 2, wcfg(4, 4, 2)},
        WinoSimCase{shape(1, 3, 10, 4, 3, 1), 2, wcfg(4, 6, 4)},
        WinoSimCase{shape(1, 2, 9, 3, 3, 1), 2, wcfg(2, 2, 3)},  // ragged
        WinoSimCase{shape(2, 2, 8, 2, 3, 1), 2, wcfg(4, 4, 2)},  // batch
        WinoSimCase{shape(1, 2, 9, 2, 3, 0), 4, wcfg(4, 4, 2)},  // F(4,3)
        WinoSimCase{shape(1, 3, 8, 4, 3, 1), 2,
                    wcfg(4, 4, 2, Layout::kNHWC)},
        WinoSimCase{shape(1, 2, 12, 3, 2, 0), 3, wcfg(3, 3, 3)},   // F(3,2)
        WinoSimCase{shape(1, 2, 12, 2, 5, 2), 2, wcfg(4, 4, 2)}));  // F(2,5)

class WinogradPhasedCorrectness : public ::testing::TestWithParam<WinoRefCase> {
};

TEST_P(WinogradPhasedCorrectness, MatchesDirectReference) {
  const auto& p = GetParam();
  const ConvProblem prob = make_problem(p.s, 41);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, p.s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(p.s.batch, p.s.cout, p.s.hout(), p.s.wout());
  winograd_phased_sim(gpu, prob.input, prob.weights, p.s, p.e, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3))
      << p.s.to_string() << " e=" << p.e;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WinogradPhasedCorrectness,
    ::testing::Values(WinoRefCase{shape(1, 1, 6, 1, 3, 0), 2},
                      WinoRefCase{shape(1, 3, 8, 4, 3, 1), 2},
                      WinoRefCase{shape(1, 2, 9, 3, 3, 1), 2},
                      WinoRefCase{shape(2, 2, 8, 2, 3, 1), 2},
                      WinoRefCase{shape(1, 2, 9, 2, 3, 0), 4}));

TEST(WinogradFused, OutputsStoredExactlyOnce) {
  const ConvShape s = shape(1, 4, 16, 4, 3, 1);
  const ConvProblem prob = make_problem(s, 3);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const auto stats = winograd_fused_sim(gpu, prob.input, prob.weights, s, 2,
                                        wcfg(8, 8, 4), out);
  EXPECT_EQ(stats.bytes_stored,
            static_cast<std::uint64_t>(s.output_elems() * 4));
}

TEST(WinogradFused, LessIoThanPhased) {
  const ConvShape s = shape(1, 32, 28, 32, 3, 1);
  const ConvProblem prob = make_problem(s, 17);
  SimGpu gpu(MachineSpec::gtx1080ti());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvConfig c = default_winograd_config(s, 2, gpu.spec());
  const auto fused =
      winograd_fused_sim(gpu, prob.input, prob.weights, s, 2, c, out);
  const auto phased =
      winograd_phased_sim(gpu, prob.input, prob.weights, s, 2, out);
  EXPECT_LT(fused.bytes_total(), phased.bytes_total());
}

TEST(WinogradFused, FewerFlopsThanDirectForThreeByThree) {
  // The whole point of Winograd: fewer multiplications. Compare counted
  // flops of fused winograd vs the direct tiled kernel on the same shape.
  const ConvShape s = shape(1, 16, 24, 16, 3, 1);
  const ConvProblem prob = make_problem(s, 19);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const auto wino = winograd_fused_sim(gpu, prob.input, prob.weights, s, 4,
                                       wcfg(8, 8, 8), out);
  const auto direct = direct_tiled_sim(gpu, prob.input, prob.weights, s,
                                       wcfg(8, 8, 8), out);
  // Element-wise stage flops scale as (a/e)^2 = 2.25 vs 9 MACs per output;
  // transforms add overhead, so just require a strict win.
  EXPECT_LT(wino.flops, direct.flops);
}

TEST(WinogradFused, SmemBudgetEnforced) {
  const ConvShape s = shape(1, 8, 16, 8, 3, 1);
  const ConvProblem prob = make_problem(s, 3);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  ConvConfig c = wcfg(16, 16, 8);
  c.smem_budget = 2048;
  EXPECT_THROW(
      winograd_fused_sim(gpu, prob.input, prob.weights, s, 2, c, out), Error);
}

// F(4,7) has a = 10: make_winograd_transform builds it, but the fused
// kernel's 8x8 register tiles cannot hold it. Both the kernel and a planner
// forced to e = 4 must refuse it instead of overrunning the stack.
TEST(WinogradFused, RejectsTilesAboveEight) {
  const ConvShape s = shape(1, 2, 12, 2, 7, 3);
  const ConvProblem prob = make_problem(s, 3);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  EXPECT_THROW(winograd_fused_sim(gpu, prob.input, prob.weights, s, 4,
                                  wcfg(8, 8, 2), out),
               Error);

  PlannerOptions opts;
  opts.mode = PlanMode::kAnalytic;
  opts.force_e = 4;
  Planner planner;
  EXPECT_THROW(planner.plan(gpu, s, opts), Error);
  EXPECT_THROW(
      planner.plan_algorithm(gpu, s, ConvAlgorithm::kWinogradFused, opts),
      Error);
  opts.force_e = 2;  // F(2,7): a = 8 still plans
  EXPECT_NO_THROW(
      planner.plan_algorithm(gpu, s, ConvAlgorithm::kWinogradFused, opts));
}

}  // namespace
}  // namespace convbound
