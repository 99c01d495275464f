#include <gtest/gtest.h>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/conv/algorithms.hpp"
#include "convbound/conv/reference.hpp"
#include "convbound/nets/inference.hpp"
#include "convbound/nets/models.hpp"
#include "convbound/plan/executor.hpp"
#include "convbound/plan/planner.hpp"

namespace convbound {
namespace {

ConvShape gshape(std::int64_t cin, std::int64_t hw, std::int64_t cout,
                 std::int64_t groups, std::int64_t k = 3,
                 std::int64_t stride = 1, std::int64_t pad = 1) {
  ConvShape s;
  s.cin = cin;
  s.hin = s.win = hw;
  s.cout = cout;
  s.kh = s.kw = k;
  s.stride = stride;
  s.pad = pad;
  s.groups = groups;
  s.validate();
  return s;
}

TEST(GroupedShape, ValidationAndDerivedQuantities) {
  const ConvShape s = gshape(8, 10, 16, 4);
  EXPECT_EQ(s.cin_per_group(), 2);
  EXPECT_EQ(s.cout_per_group(), 4);
  EXPECT_EQ(s.weight_elems(), 16 * 2 * 9);
  // FLOPs shrink by the group factor relative to dense.
  ConvShape dense = s;
  dense.groups = 1;
  EXPECT_EQ(s.flops() * 4, dense.flops());

  ConvShape bad = s;
  bad.groups = 3;  // does not divide 8
  EXPECT_THROW(bad.validate(), Error);
}

TEST(GroupedReference, TwoGroupsAreIndependentHalves) {
  // A 2-group conv must equal two independent convs on channel halves.
  const ConvShape s = gshape(4, 8, 6, 2);
  const ConvProblem p = make_problem(s, 61);
  const Tensor4<float> got = conv2d_ref(p.input, p.weights, s);

  ConvShape half = s;
  half.cin = 2;
  half.cout = 3;
  half.groups = 1;
  for (int g = 0; g < 2; ++g) {
    Tensor4<float> in_half(1, 2, 8, 8);
    for (std::int64_t c = 0; c < 2; ++c)
      for (std::int64_t h = 0; h < 8; ++h)
        for (std::int64_t w = 0; w < 8; ++w)
          in_half(0, c, h, w) = p.input(0, g * 2 + c, h, w);
    Tensor4<float> w_half(3, 2, 3, 3);
    for (std::int64_t oc = 0; oc < 3; ++oc)
      for (std::int64_t c = 0; c < 2; ++c)
        for (std::int64_t i = 0; i < 3; ++i)
          for (std::int64_t j = 0; j < 3; ++j)
            w_half(oc, c, i, j) = p.weights(g * 3 + oc, c, i, j);
    const Tensor4<float> expect = conv2d_ref(in_half, w_half, half);
    for (std::int64_t oc = 0; oc < 3; ++oc)
      for (std::int64_t h = 0; h < s.hout(); ++h)
        for (std::int64_t w = 0; w < s.wout(); ++w)
          ASSERT_NEAR(got(0, g * 3 + oc, h, w), expect(0, oc, h, w), 1e-5);
  }
}

struct GroupedCase {
  ConvShape s;
  ConvConfig cfg;
};

class GroupedTiledCorrectness : public ::testing::TestWithParam<GroupedCase> {
};

TEST_P(GroupedTiledCorrectness, MatchesReference) {
  const auto& p = GetParam();
  const ConvProblem prob = make_problem(p.s, 67, p.cfg.layout);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, p.s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(p.s.batch, p.s.cout, p.s.hout(), p.s.wout());
  direct_tiled_sim(gpu, prob.input, prob.weights, p.s, p.cfg, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3))
      << p.s.to_string() << " " << p.cfg.to_string();
}

ConvConfig gcfg(std::int64_t x, std::int64_t y, std::int64_t z) {
  ConvConfig c;
  c.x = x;
  c.y = y;
  c.z = z;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupedTiledCorrectness,
    ::testing::Values(
        GroupedCase{gshape(4, 8, 6, 2), gcfg(4, 4, 3)},
        GroupedCase{gshape(8, 10, 8, 8), gcfg(4, 4, 1)},     // depthwise
        GroupedCase{gshape(8, 10, 8, 8), gcfg(4, 4, 8)},     // z gets snapped
        GroupedCase{gshape(6, 9, 12, 3), gcfg(3, 3, 4)},
        GroupedCase{gshape(16, 12, 16, 16, 3, 2, 1), gcfg(2, 2, 1)},  // dw s2
        GroupedCase{gshape(4, 7, 8, 4, 1, 1, 0), gcfg(7, 7, 2)}));  // 1x1

TEST(GroupedNaive, MatchesReference) {
  const ConvShape s = gshape(8, 9, 8, 8);  // depthwise
  const ConvProblem prob = make_problem(s, 71);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvPlan plan = Planner().plan_algorithm(
      gpu, s, {ConvAlgorithm::kDirectNaive}, PlannerOptions{});
  run_plan(gpu, plan, prob.input, prob.weights, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3));
}

TEST(GroupedDispatch, UnsupportedAlgorithmsDeclineGroups) {
  const ConvShape s = gshape(8, 10, 8, 8);
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kIm2col, s));
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kWinogradFused, s));
  EXPECT_TRUE(algorithm_supports(ConvAlgorithm::kDirectTiled, s));
  EXPECT_TRUE(algorithm_supports(ConvAlgorithm::kDirectNaive, s));
}

TEST(GroupedBounds, DepthwiseBoundBelowDense) {
  ConvShape dw = gshape(64, 28, 64, 64);
  ConvShape dense = dw;
  dense.groups = 1;
  const double S = 8192;
  EXPECT_LT(direct_conv_lower_bound_leading(dw, S),
            direct_conv_lower_bound_leading(dense, S));
  // Per-group channel reads shrink the dataflow prediction too.
  EXPECT_LT(direct_dataflow_reads(dw, 4, 4, 1),
            direct_dataflow_reads(dense, 4, 4, 1));
}

TEST(GroupedModels, MobilenetShapesChainAndValidate) {
  const auto layers = mobilenet_v1();
  EXPECT_EQ(layers.size(), 1u + 13u * 2u);
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    EXPECT_EQ(layers[i + 1].shape.cin, layers[i].shape.cout)
        << layers[i].name;
    EXPECT_EQ(layers[i + 1].shape.hin, layers[i].shape.hout())
        << layers[i].name;
  }
  int depthwise = 0;
  for (const auto& l : layers)
    if (l.shape.groups > 1) {
      EXPECT_EQ(l.shape.groups, l.shape.cin);
      ++depthwise;
    }
  EXPECT_EQ(depthwise, 13);
}

TEST(GroupedModels, MobilenetEndToEndOursBeatsBaseline) {
  SimGpu gpu(MachineSpec::v100());
  // A 3-block MobileNet slice (full net would slow the suite down).
  auto layers = mobilenet_v1();
  layers.resize(7);
  Planner planner;
  const ModelReport base = run_model(gpu, "mobilenet-slice", layers,
                                     ModelStrategy::kBaseline, planner);
  const ModelReport ours = run_model(gpu, "mobilenet-slice", layers,
                                     ModelStrategy::kOursDefault, planner);
  EXPECT_LT(ours.total_seconds, base.total_seconds);
}

}  // namespace
}  // namespace convbound
