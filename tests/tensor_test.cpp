#include <gtest/gtest.h>

#include "convbound/tensor/conv_shape.hpp"
#include "convbound/tensor/layout.hpp"
#include "convbound/tensor/tensor.hpp"

namespace convbound {
namespace {

TEST(Layout, Names) {
  EXPECT_EQ(to_string(Layout::kNCHW), "NCHW");
}

TEST(Layout, StridesNCHW) {
  const auto s = make_strides(Layout::kNCHW, 2, 3, 4, 5);
  EXPECT_EQ(s.w, 1);
  EXPECT_EQ(s.h, 5);
  EXPECT_EQ(s.c, 20);
  EXPECT_EQ(s.n, 60);
}

TEST(Layout, StridesNHWC) {
  const auto s = make_strides(Layout::kNHWC, 2, 3, 4, 5);
  EXPECT_EQ(s.c, 1);
  EXPECT_EQ(s.w, 3);
  EXPECT_EQ(s.h, 15);
  EXPECT_EQ(s.n, 60);
}

TEST(Layout, StridesNCWH) {
  const auto s = make_strides(Layout::kNCWH, 1, 2, 3, 4);
  EXPECT_EQ(s.h, 1);
  EXPECT_EQ(s.w, 3);
  EXPECT_EQ(s.c, 12);
}

class LayoutRoundTrip : public ::testing::TestWithParam<Layout> {};

TEST_P(LayoutRoundTrip, ValuesSurviveLayoutConversion) {
  Rng rng(11);
  Tensor4<float> t(2, 3, 5, 7, Layout::kNCHW);
  t.fill_random(rng);
  const Tensor4<float> u = t.to_layout(GetParam());
  EXPECT_EQ(u.layout(), GetParam());
  for (std::int64_t n = 0; n < 2; ++n)
    for (std::int64_t c = 0; c < 3; ++c)
      for (std::int64_t h = 0; h < 5; ++h)
        for (std::int64_t w = 0; w < 7; ++w)
          ASSERT_EQ(t(n, c, h, w), u(n, c, h, w));
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, LayoutRoundTrip,
                         ::testing::Values(Layout::kNCHW, Layout::kNCWH,
                                           Layout::kNHWC));

TEST(Tensor, IndexingIsDense) {
  Tensor4<float> t(2, 2, 2, 2);
  float v = 0;
  for (std::int64_t n = 0; n < 2; ++n)
    for (std::int64_t c = 0; c < 2; ++c)
      for (std::int64_t h = 0; h < 2; ++h)
        for (std::int64_t w = 0; w < 2; ++w) t(n, c, h, w) = v++;
  // NCHW: last dim fastest.
  EXPECT_EQ(t.data()[0], 0.0f);
  EXPECT_EQ(t.data()[1], 1.0f);
  EXPECT_EQ(t.data()[15], 15.0f);
}

TEST(Tensor, FillAndCompare) {
  Tensor4<float> a(1, 2, 3, 4), b(1, 2, 3, 4);
  a.fill(1.5f);
  b.fill(1.5f);
  EXPECT_TRUE(allclose(a, b));
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  b(0, 1, 2, 3) = 2.0f;
  EXPECT_FALSE(allclose(a, b));
  EXPECT_NEAR(max_abs_diff(a, b), 0.5, 1e-7);
}

TEST(Tensor, SizeBytes) {
  Tensor4<float> t(2, 3, 4, 5);
  EXPECT_EQ(t.size(), 120);
  EXPECT_EQ(t.size_bytes(), 480u);
}

TEST(ConvShape, OutputDims) {
  ConvShape s;
  s.hin = s.win = 224;
  s.kh = s.kw = 3;
  s.stride = 1;
  s.pad = 1;
  EXPECT_EQ(s.hout(), 224);
  s.stride = 2;
  EXPECT_EQ(s.hout(), 112);
  s.pad = 0;
  EXPECT_EQ(s.hout(), 111);
}

TEST(ConvShape, Flops) {
  ConvShape s;
  s.batch = 2;
  s.cin = 3;
  s.hin = s.win = 5;
  s.cout = 4;
  s.kh = s.kw = 3;
  // hout = wout = 3; flops = 2*2*4*3*3*3*9.
  EXPECT_EQ(s.flops(), 2 * 2 * 4 * 3 * 3 * 3 * 9);
}

TEST(ConvShape, ReuseMatchesEquation13) {
  ConvShape s;
  s.kh = s.kw = 3;
  s.stride = 1;
  EXPECT_DOUBLE_EQ(s.reuse(), 9.0);
  s.stride = 2;
  EXPECT_DOUBLE_EQ(s.reuse(), 2.25);
}

TEST(ConvShape, ValidateRejectsBadKernels) {
  ConvShape s;
  s.hin = s.win = 2;
  s.kh = s.kw = 5;
  EXPECT_THROW(s.validate(), Error);
}

}  // namespace
}  // namespace convbound
