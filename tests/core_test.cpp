#include <gtest/gtest.h>

#include "convbound/convbound.hpp"

namespace convbound {
namespace {

TEST(Api, Conv2dMatchesReference) {
  ConvShape s;
  s.cin = 8;
  s.hin = s.win = 12;
  s.cout = 8;
  s.kh = s.kw = 3;
  s.pad = 1;
  const ConvProblem p = make_problem(s, 2024);
  const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
  SimGpu gpu(MachineSpec::v100());
  const ConvResult r = conv2d(gpu, p.input, p.weights, s);
  EXPECT_TRUE(allclose(expect, r.output, 1e-3, 1e-3));
  EXPECT_GT(r.stats.sim_time, 0);
}

TEST(Api, Conv2dHandlesStridedShapes) {
  ConvShape s;
  s.cin = 4;
  s.hin = s.win = 15;
  s.cout = 8;
  s.kh = s.kw = 5;
  s.stride = 2;
  const ConvProblem p = make_problem(s, 11);
  const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
  SimGpu gpu(MachineSpec::gtx1080ti());
  const ConvResult r = conv2d(gpu, p.input, p.weights, s);
  EXPECT_TRUE(allclose(expect, r.output, 1e-3, 1e-3));
}

}  // namespace
}  // namespace convbound
