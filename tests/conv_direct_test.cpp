#include <gtest/gtest.h>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/conv/algorithms.hpp"
#include "convbound/conv/reference.hpp"

namespace convbound {
namespace {

ConvShape shape(std::int64_t b, std::int64_t cin, std::int64_t hw,
                std::int64_t cout, std::int64_t k, std::int64_t stride,
                std::int64_t pad, std::int64_t groups = 1) {
  ConvShape s;
  s.batch = b;
  s.cin = cin;
  s.hin = s.win = hw;
  s.cout = cout;
  s.kh = s.kw = k;
  s.stride = stride;
  s.pad = pad;
  s.groups = groups;
  return s;
}

struct DirectCase {
  ConvShape s;
  ConvConfig cfg;
};

class DirectTiledCorrectness : public ::testing::TestWithParam<DirectCase> {};

TEST_P(DirectTiledCorrectness, MatchesReference) {
  const auto& p = GetParam();
  const ConvProblem prob = make_problem(p.s, 7, p.cfg.layout);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, p.s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(p.s.batch, p.s.cout, p.s.hout(), p.s.wout());
  direct_tiled_sim(gpu, prob.input, prob.weights, p.s, p.cfg, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3))
      << p.s.to_string() << " " << p.cfg.to_string()
      << " maxdiff=" << max_abs_diff(expect, out);
}

ConvConfig cfg(std::int64_t x, std::int64_t y, std::int64_t z,
               Layout layout = Layout::kNCHW) {
  ConvConfig c;
  c.x = x;
  c.y = y;
  c.z = z;
  c.layout = layout;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, DirectTiledCorrectness,
    ::testing::Values(
        DirectCase{shape(1, 1, 5, 1, 3, 1, 0), cfg(1, 1, 1)},
        DirectCase{shape(1, 3, 8, 4, 3, 1, 1), cfg(4, 4, 2)},
        DirectCase{shape(2, 4, 9, 6, 3, 2, 1), cfg(2, 2, 3)},
        DirectCase{shape(1, 2, 11, 3, 5, 1, 2), cfg(3, 3, 3)},
        DirectCase{shape(1, 3, 12, 4, 1, 1, 0), cfg(6, 6, 2)},   // 1x1 kernel
        DirectCase{shape(1, 2, 13, 5, 3, 4, 0), cfg(2, 2, 5)},   // stride 4
        DirectCase{shape(1, 8, 14, 16, 3, 1, 1), cfg(7, 14, 4)},  // wide tile
        DirectCase{shape(1, 3, 10, 4, 3, 1, 1), cfg(32, 32, 64)},  // > image
        DirectCase{shape(1, 3, 8, 4, 3, 1, 1), cfg(4, 4, 2, Layout::kNHWC)},
        DirectCase{shape(1, 3, 8, 4, 3, 1, 1), cfg(4, 4, 2, Layout::kNCWH)},
        DirectCase{shape(3, 2, 7, 3, 3, 1, 0), cfg(5, 5, 3)},    // batch > 1
        DirectCase{shape(1, 5, 9, 7, 2, 1, 0), cfg(4, 4, 7)}));  // even kernel

// Counted traffic pinned to literal values: the block body may reorder its
// arithmetic, but never what it moves or counts.
struct TrafficCase {
  const char* name;
  ConvShape s;
  ConvConfig cfg;
  std::uint64_t bytes_loaded, bytes_stored, flops, num_blocks;
};

TEST(DirectTiled, CountedTrafficIsPinned) {
  const TrafficCase cases[] = {
      {"1x1 s1", shape(1, 8, 12, 16, 1, 1, 0), cfg(6, 6, 4), 20480, 9216,
       36864, 16},
      {"1x1 s2", shape(1, 8, 13, 8, 1, 2, 0), cfg(4, 4, 4), 10240, 1568, 6272,
       8},
      // hout = wout = 11: neither 4 nor 3 divides it.
      {"3x3 s1 edge tiles", shape(1, 4, 11, 6, 3, 1, 1), cfg(4, 3, 3), 18528,
       2904, 52272, 24},
      {"3x3 s2", shape(2, 4, 14, 6, 3, 2, 1), cfg(4, 4, 3), 21312, 2352,
       42336, 16},
      {"7x7 s2 cin3", shape(1, 3, 32, 8, 7, 2, 3), cfg(4, 8, 4), 79368, 8192,
       602112, 16},
      {"depthwise", shape(1, 8, 10, 8, 3, 1, 1, 8), cfg(5, 5, 4), 5760, 3200,
       14400, 32},
      {"grouped g2", shape(1, 4, 9, 6, 3, 1, 1, 2), cfg(3, 3, 3), 6592, 1944,
       17496, 18},
      // Wide z-tiles (z >= 8): the channel-chunk path.
      {"3x3 s1 z8", shape(1, 6, 12, 16, 3, 1, 1), cfg(4, 6, 8), 31488, 9216,
       248832, 12},
      {"3x3 s1 z16", shape(1, 5, 10, 32, 3, 1, 1), cfg(5, 5, 16), 28800, 12800,
       288000, 8},
      // 20 = one 16-channel chunk plus a 4-channel remainder.
      {"3x3 s1 z20", shape(1, 4, 9, 40, 3, 1, 1), cfg(3, 4, 20), 57248, 12960,
       233280, 18},
      // wout = 10: 3 does not divide it.
      {"1x1 s1 z12 edge tiles", shape(1, 16, 10, 24, 1, 1, 0), cfg(4, 3, 12),
       31232, 9600, 76800, 24},
      {"3x3 s2 z16", shape(2, 8, 14, 16, 3, 2, 1), cfg(4, 4, 16), 51264, 6272,
       225792, 8},
      // The ResNet-18 stem's plan config; z = 22 snaps to 16 for cout = 64.
      {"7x7 s2 cin3 z22 stem", shape(1, 3, 48, 64, 7, 2, 3), cfg(17, 16, 22),
       285360, 147456, 10838016, 16},
  };
  for (const TrafficCase& c : cases) {
    SCOPED_TRACE(c.name);
    const ConvProblem prob = make_problem(c.s, 11);
    const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, c.s);
    SimGpu gpu(MachineSpec::v100());
    Tensor4<float> out(c.s.batch, c.s.cout, c.s.hout(), c.s.wout());
    const LaunchStats st =
        direct_tiled_sim(gpu, prob.input, prob.weights, c.s, c.cfg, out);
    EXPECT_EQ(st.bytes_loaded, c.bytes_loaded);
    EXPECT_EQ(st.bytes_stored, c.bytes_stored);
    EXPECT_EQ(st.flops, c.flops);
    EXPECT_EQ(st.num_blocks, c.num_blocks);
    EXPECT_TRUE(allclose(expect, out, 1e-4, 1e-4))
        << "maxdiff=" << max_abs_diff(expect, out);
  }
}

class DirectBaselineCorrectness
    : public ::testing::TestWithParam<ConvShape> {};

TEST_P(DirectBaselineCorrectness, NaiveMatchesReference) {
  const ConvShape s = GetParam();
  const ConvProblem prob = make_problem(s, 13);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  direct_naive_sim(gpu, prob.input, prob.weights, s, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3)) << s.to_string();
}

TEST_P(DirectBaselineCorrectness, Im2colMatchesReference) {
  const ConvShape s = GetParam();
  const ConvProblem prob = make_problem(s, 13);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  im2col_sim(gpu, prob.input, prob.weights, s, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3)) << s.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, DirectBaselineCorrectness,
    ::testing::Values(shape(1, 1, 5, 1, 3, 1, 0),
                      shape(1, 3, 8, 4, 3, 1, 1),
                      shape(2, 4, 9, 6, 3, 2, 1),
                      shape(1, 2, 11, 3, 5, 1, 2),
                      shape(1, 3, 12, 4, 1, 1, 0),
                      shape(1, 2, 16, 5, 3, 4, 0)));

TEST(DirectTiled, OutputsStoredExactlyOnce) {
  const ConvShape s = shape(1, 8, 16, 8, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 3);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const auto stats =
      direct_tiled_sim(gpu, prob.input, prob.weights, s, cfg(8, 8, 4), out);
  EXPECT_EQ(stats.bytes_stored,
            static_cast<std::uint64_t>(s.output_elems() * 4));
}

TEST(DirectTiled, ReadsMatchEquation20) {
  // No padding, tiles dividing the output exactly: counted loads must equal
  // the Equation (20) prediction.
  const ConvShape s = shape(1, 16, 18, 8, 3, 1, 0);  // hout = wout = 16
  const ConvProblem prob = make_problem(s, 5);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvConfig c = cfg(8, 8, 4);
  const auto stats = direct_tiled_sim(gpu, prob.input, prob.weights, s, c, out);
  // Equation (20) with x' = x + k - 1 (the formula's x' ~ mu*x approximates
  // the halo; count it exactly here).
  const double blocks = (16.0 / 8) * (16.0 / 8) * (8.0 / 4);
  const double per_block = 10.0 * 10 * 16 + 3 * 3 * 16 * 4;
  EXPECT_EQ(stats.bytes_loaded,
            static_cast<std::uint64_t>(blocks * per_block * 4));
  // And the Equation (20) idealised prediction is within the halo slack.
  const double eq20 = direct_dataflow_reads(s, 8, 8, 4) * 4;
  EXPECT_NEAR(static_cast<double>(stats.bytes_loaded) / eq20, 1.0, 0.6);
}

TEST(DirectTiled, OptimalityConditionBeatsOffCondition) {
  // Same tile budget, on- vs off-condition: on-condition must move less.
  const ConvShape s = shape(1, 64, 32, 64, 3, 1, 1);  // R = 9
  const ConvProblem prob = make_problem(s, 5);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  // budget 576: on-condition z = 8, xy = 72 -> (8, 9, 8)? xy=72=9*8 ✓.
  const auto on = direct_tiled_sim(gpu, prob.input, prob.weights, s,
                                   cfg(8, 9, 8), out);
  const auto off = direct_tiled_sim(gpu, prob.input, prob.weights, s,
                                    cfg(3, 3, 64), out);
  EXPECT_LT(on.bytes_total(), off.bytes_total());
}

TEST(DirectTiled, BeatsBaselinesOnIo) {
  const ConvShape s = shape(1, 64, 28, 128, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 21);
  SimGpu gpu(MachineSpec::gtx1080ti());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvConfig c = default_tiled_config(s, gpu.spec());
  const auto ours = direct_tiled_sim(gpu, prob.input, prob.weights, s, c, out);
  const auto naive = direct_naive_sim(gpu, prob.input, prob.weights, s, out);
  const auto i2c = im2col_sim(gpu, prob.input, prob.weights, s, out);
  EXPECT_LT(ours.bytes_total(), naive.bytes_total());
  EXPECT_LT(ours.bytes_total(), i2c.bytes_total());
}

TEST(DirectTiled, IoAboveLowerBound) {
  const ConvShape s = shape(1, 32, 28, 32, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 23);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvConfig c = default_tiled_config(s, gpu.spec());
  const auto stats = direct_tiled_sim(gpu, prob.input, prob.weights, s, c, out);
  // Per-block fast memory is S_sm (in elements); every real execution must
  // move at least the theoretical minimum.
  const double bound =
      direct_conv_lower_bound(s, static_cast<double>(gpu.spec().smem_floats()));
  EXPECT_GE(static_cast<double>(stats.bytes_total()) / 4.0, bound);
}

TEST(DirectTiled, SmemBudgetEnforced) {
  const ConvShape s = shape(1, 8, 16, 8, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 3);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  ConvConfig c = cfg(16, 16, 8);
  c.smem_budget = 1024;  // deliberately too small
  EXPECT_THROW(direct_tiled_sim(gpu, prob.input, prob.weights, s, c, out),
               Error);
}

TEST(AlgorithmSupports, WinogradUnsupportedForStride2) {
  const ConvShape s = shape(1, 4, 10, 4, 3, 2, 1);
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kWinogradFused, s));
  EXPECT_TRUE(algorithm_supports(ConvAlgorithm::kDirectTiled, s));
}

}  // namespace
}  // namespace convbound
