#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "convbound/ml/gbt.hpp"
#include "convbound/util/check.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

std::pair<std::vector<std::vector<double>>, std::vector<double>> make_data(
    int n, int d, Rng& rng, double (*f)(const std::vector<double>&)) {
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<std::size_t>(d));
    for (auto& v : row) v = rng.uniform(-2, 2);
    y.push_back(f(row));
    X.push_back(std::move(row));
  }
  return {X, y};
}

/// Root-mean-square error of `model` over a labelled set.
double rmse(const Gbt& model, const std::vector<std::vector<double>>& X,
            const std::vector<double>& y) {
  double se = 0;
  for (std::size_t i = 0; i < X.size(); ++i) {
    const double d = model.predict(X[i]) - y[i];
    se += d * d;
  }
  return std::sqrt(se / static_cast<double>(X.size()));
}

double mean_baseline_rmse(const std::vector<double>& y) {
  double mean = 0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double se = 0;
  for (double v : y) se += (v - mean) * (v - mean);
  return std::sqrt(se / static_cast<double>(y.size()));
}

TEST(Gbt, FitsConstantExactly) {
  Gbt model;
  std::vector<std::vector<double>> X = {{0}, {1}, {2}, {3}};
  std::vector<double> y = {5, 5, 5, 5};
  model.fit(X, y);
  EXPECT_NEAR(model.predict({1.5}), 5.0, 1e-9);
}

TEST(Gbt, LearnsStepFunction) {
  Rng rng(1);
  auto [X, y] = make_data(400, 1, rng, [](const std::vector<double>& x) {
    return x[0] > 0 ? 10.0 : -10.0;
  });
  Gbt model;
  model.fit(X, y);
  EXPECT_NEAR(model.predict({1.0}), 10.0, 1.0);
  EXPECT_NEAR(model.predict({-1.0}), -10.0, 1.0);
}

TEST(Gbt, BeatsMeanPredictorOnNonlinearTarget) {
  Rng rng(2);
  auto [X, y] = make_data(600, 3, rng, [](const std::vector<double>& x) {
    return x[0] * x[1] + std::abs(x[2]);
  });
  Gbt model;
  model.fit(X, y);
  EXPECT_LT(rmse(model, X, y), 0.4 * mean_baseline_rmse(y));
}

TEST(Gbt, MoreTreesFitBetter) {
  Rng rng(3);
  auto [X, y] = make_data(500, 2, rng, [](const std::vector<double>& x) {
    return std::sin(x[0]) * x[1];
  });
  GbtParams small;
  small.num_trees = 4;
  GbtParams big;
  big.num_trees = 128;
  Gbt a, b;
  a.fit(X, y, small);
  b.fit(X, y, big);
  EXPECT_LT(rmse(b, X, y), rmse(a, X, y));
}

TEST(Gbt, GeneralisesOnHeldOut) {
  Rng rng(4);
  auto f = [](const std::vector<double>& x) { return 3 * x[0] - x[1]; };
  auto [X, y] = make_data(800, 2, rng, f);
  auto [Xt, yt] = make_data(200, 2, rng, f);
  Gbt model;
  model.fit(X, y);
  EXPECT_LT(rmse(model, Xt, yt), 0.35 * mean_baseline_rmse(yt));
}

TEST(Gbt, RejectsEmptyAndRagged) {
  Gbt model;
  EXPECT_THROW(model.fit({}, {}), Error);
  EXPECT_THROW(model.fit({{1, 2}, {3}}, {1, 2}), Error);
  EXPECT_THROW(model.predict({1.0}), Error);  // before fit
}

TEST(Gbt, RejectsNonFiniteData) {
  // A NaN feature would break the presort's strict weak ordering, and a
  // non-finite target poisons every residual: both are errors, not UB.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> X = {{1, 2}, {2, 3}, {3, 4}, {4, 5}};
  const std::vector<double> y = {1, 2, 3, 4};
  Gbt model;
  for (double bad : {nan, inf, -inf}) {
    auto Xb = X;
    Xb[2][1] = bad;
    EXPECT_THROW(model.fit(Xb, y), Error);
    auto yb = y;
    yb[3] = bad;
    EXPECT_THROW(model.fit(X, yb), Error);
  }
  EXPECT_NO_THROW(model.fit(X, y));
}

TEST(Gbt, PredictChecksArity) {
  Gbt model;
  model.fit({{1, 2}, {2, 3}, {3, 4}, {4, 5}}, {1, 2, 3, 4});
  EXPECT_THROW(model.predict({1.0}), Error);
  EXPECT_NO_THROW(model.predict({1.0, 2.0}));
}

TEST(Gbt, DeterministicAcrossRefits) {
  Rng rng(5);
  auto [X, y] = make_data(200, 2, rng, [](const std::vector<double>& x) {
    return x[0] + x[1] * x[1];
  });
  Gbt a, b;
  a.fit(X, y);
  b.fit(X, y);
  for (const auto& row : X) EXPECT_DOUBLE_EQ(a.predict(row), b.predict(row));
}

TEST(Gbt, HandlesDuplicateFeatureValues) {
  // All rows share feature values but targets differ: must not split on
  // equal values, must fall back to the mean.
  Gbt model;
  std::vector<std::vector<double>> X(10, {1.0, 2.0});
  std::vector<double> y = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
  model.fit(X, y);
  EXPECT_NEAR(model.predict({1.0, 2.0}), 0.5, 1e-6);
}

// ------------------------------------------------------------ pinned fit --

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Seeded set that exercises every branch of the split search: a feature
// with four tied levels, a constant column, a continuous feature, a
// half-step feature, and every fifth row a duplicate of the previous one
// with a different target.
std::pair<std::vector<std::vector<double>>, std::vector<double>> pin_data(
    int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  for (int i = 0; i < n; ++i) {
    if (i % 5 == 4) {
      X.push_back(X.back());
      y.push_back(y.back() + rng.uniform(-1, 1));
      continue;
    }
    std::vector<double> row = {std::floor(rng.uniform(0, 4)), 7.0,
                               rng.uniform(-2, 2),
                               std::round(rng.uniform(-2, 2) * 2) / 2};
    y.push_back(row[0] * row[2] + (row[3] > 0 ? 1.5 : -0.5) +
                0.1 * rng.uniform(-1, 1));
    X.push_back(std::move(row));
  }
  return {X, y};
}

GbtParams pin_params(int num_trees, int max_depth, int min_leaf,
                     double lambda) {
  GbtParams p;
  p.num_trees = num_trees;
  p.max_depth = max_depth;
  p.min_samples_leaf = min_leaf;
  p.lambda = lambda;
  return p;
}

// The fitted model is a pure function of (X, y, params): predictions are
// pinned bit-for-bit, so any change to the split search, its tie order or
// its summation order shows here. Each case pins the predictions on rows
// 0, n/2 and n-1, on one off-data probe, and their sum over every row.
TEST(Gbt, FitIsPinned) {
  struct Case {
    int n;
    GbtParams params;
    std::vector<std::string> expected;
  };
  const GbtParams def;
  const std::vector<Case> cases = {
      {5, def,
       {"-0x1.a2dee907d2979p+1",
        "-0x1.708b214370995p-1",
        "-0x1.833a9f43cdf09p+0",
        "-0x1.708b214370995p-1",
        "-0x1.7e8ebfc3b69acp+2"}},
      // min_samples_leaf 3 on 5 rows: no split is possible.
      {5, pin_params(64, 5, 3, 1.0),
       {"-0x1.31fe2615aa872p+0",
        "-0x1.31fe2615aa872p+0",
        "-0x1.31fe2615aa872p+0",
        "-0x1.31fe2615aa872p+0",
        "-0x1.7e7daf9b1528ep+2"}},
      {5, pin_params(64, 3, 1, 1.0),
       {"-0x1.40bc21c805ea4p+2",
        "0x1.d3417519433b9p-1",
        "-0x1.5f77e03998d93p-1",
        "0x1.d3417519433b9p-1",
        "-0x1.7e1fb589e7f3dp+2"}},
      {31, def,
       {"0x1.0c259c8b2139ap+1",
        "0x1.c5a2a0099ab17p-1",
        "0x1.a7546a9e86d45p+0",
        "-0x1.1b0a88090536bp-2",
        "0x1.3a19269337d54p+4"}},
      // 31 rows at min_samples_leaf 15: only the two middle cuts qualify.
      {31, pin_params(64, 5, 15, 1.0),
       {"0x1.d143f7c1ba455p+0",
        "-0x1.e8b07358317b4p-2",
        "0x1.d143f7c1ba455p+0",
        "0x1.d143f7c1ba455p+0",
        "0x1.3a039b6f92423p+4"}},
      {31, pin_params(64, 6, 1, 1.0),
       {"0x1.fdf86bf7b43e1p+0",
        "0x1.c0bfa8e11854ep-1",
        "0x1.8aee5bc899ca6p+0",
        "-0x1.bc8004603a679p-2",
        "0x1.398eeee0b48b7p+4"}},
      {200, def,
       {"0x1.f5a3135c1814bp-2",
        "-0x1.2182eafc992b3p-1",
        "0x1.29b24ced8f5dap+0",
        "-0x1.7e9ceeb7739cfp-6",
        "0x1.1e1e8fde20836p+5"}},
      {200, pin_params(16, 5, 1, 0.0),
       {"0x1.2d288ac52a188p-1",
        "-0x1.14971783d6ec8p-1",
        "0x1.f843f1f07ae2ep-1",
        "0x1.3a3373bc7e91ap-5",
        "0x1.1e681fd0dbb05p+5"}},
  };
  for (const Case& c : cases) {
    auto [X, y] = pin_data(c.n, static_cast<std::uint64_t>(c.n) + 17);
    Gbt model;
    model.fit(X, y, c.params);
    std::vector<std::string> got;
    const std::size_t n = X.size();
    for (std::size_t i : {std::size_t{0}, n / 2, n - 1})
      got.push_back(hex(model.predict(X[i])));
    got.push_back(hex(model.predict({1.5, 7.0, 0.3, -0.5})));
    double sum = 0;
    for (const auto& row : X) sum += model.predict(row);
    got.push_back(hex(sum));
    std::string printed;
    for (const std::string& s : got) printed += "\"" + s + "\", ";
    EXPECT_EQ(got, c.expected)
        << "n=" << c.n << " min_samples_leaf=" << c.params.min_samples_leaf
        << " max_depth=" << c.params.max_depth << ": {" << printed << "}";
  }
}

}  // namespace
}  // namespace convbound
