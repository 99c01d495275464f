#include "convbound/conv/winograd_transform.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "convbound/util/check.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {

namespace {

/// Canonical evaluation points; small magnitudes first to keep the
/// transforms well-conditioned (same policy as Lavin & Gray / wincnn).
constexpr std::array<double, 9> kPoints = {0,  1,   -1,  2,  -2,
                                           0.5, -0.5, 3,  -3};

/// Coefficients of prod_{j in points} (x - p_j), ascending powers.
std::vector<double> poly_from_roots(const std::vector<double>& roots) {
  std::vector<double> c = {1.0};
  for (double rt : roots) {
    std::vector<double> nc(c.size() + 1, 0.0);
    for (std::size_t i = 0; i < c.size(); ++i) {
      nc[i + 1] += c[i];
      nc[i] -= rt * c[i];
    }
    c = nc;
  }
  return c;
}

}  // namespace

WinogradTransform make_winograd_transform(std::int64_t e, std::int64_t r) {
  CB_CHECK_MSG(e >= 1 && r >= 1, "F(" << e << "," << r << ")");
  const std::int64_t a = e + r - 1;
  CB_CHECK_MSG(a >= 2 && a - 1 <= static_cast<std::int64_t>(kPoints.size()),
               "F(" << e << "," << r << ") needs " << a - 1
                    << " evaluation points; supported max is "
                    << kPoints.size());

  WinogradTransform t;
  t.e = e;
  t.r = r;
  t.a = a;
  t.AT.assign(static_cast<std::size_t>(e * a), 0.0);
  t.G.assign(static_cast<std::size_t>(a * r), 0.0);
  t.BT.assign(static_cast<std::size_t>(a * a), 0.0);

  const std::int64_t nf = a - 1;  // number of finite points
  std::vector<double> pts(kPoints.begin(), kPoints.begin() + nf);

  // G: kernel evaluation rows [1, p, ..., p^{r-1}]; infinity row = e_{r-1}.
  for (std::int64_t j = 0; j < nf; ++j) {
    double pw = 1.0;
    for (std::int64_t i = 0; i < r; ++i) {
      t.G[static_cast<std::size_t>(j * r + i)] = pw;
      pw *= pts[static_cast<std::size_t>(j)];
    }
  }
  t.G[static_cast<std::size_t>((a - 1) * r + (r - 1))] = 1.0;

  // AT = (data-side evaluation matrix)^T: AT[i][j] = p_j^i, infinity column
  // = e_{e-1}.
  for (std::int64_t j = 0; j < nf; ++j) {
    double pw = 1.0;
    for (std::int64_t i = 0; i < e; ++i) {
      t.AT[static_cast<std::size_t>(i * a + j)] = pw;
      pw *= pts[static_cast<std::size_t>(j)];
    }
  }
  t.AT[static_cast<std::size_t>((e - 1) * a + (a - 1))] = 1.0;

  // BT = C^T where C interpolates: column j < a-1 holds the coefficients of
  // the Lagrange basis l_j(x) over the finite points; column a-1 holds the
  // coefficients of M(x) = prod (x - p_j).
  for (std::int64_t j = 0; j < nf; ++j) {
    std::vector<double> others;
    double fj = 1.0;
    for (std::int64_t i = 0; i < nf; ++i) {
      if (i == j) continue;
      others.push_back(pts[static_cast<std::size_t>(i)]);
      fj *= pts[static_cast<std::size_t>(j)] - pts[static_cast<std::size_t>(i)];
    }
    const auto lj = poly_from_roots(others);  // degree a-2
    for (std::size_t i = 0; i < lj.size(); ++i) {
      // BT[j][i] = C[i][j] = coeff_i(l_j) / f_j.
      t.BT[static_cast<std::size_t>(j * a) + i] = lj[i] / fj;
    }
  }
  const auto m = poly_from_roots(pts);  // degree a-1, a coefficients
  for (std::size_t i = 0; i < m.size(); ++i)
    t.BT[static_cast<std::size_t>((a - 1) * a) + i] = m[i];

  // Self-verification: y_i = sum_k g_k d_{i+k} must equal AT[(Gg) ⊙ (BTd)].
  Rng rng(0x5eedc0de);
  std::vector<double> g(static_cast<std::size_t>(r)),
      d(static_cast<std::size_t>(a));
  for (auto& v : g) v = rng.uniform(-1, 1);
  for (auto& v : d) v = rng.uniform(-1, 1);
  std::vector<double> gg(static_cast<std::size_t>(a), 0.0),
      dd(static_cast<std::size_t>(a), 0.0);
  for (std::int64_t j = 0; j < a; ++j) {
    for (std::int64_t i = 0; i < r; ++i)
      gg[static_cast<std::size_t>(j)] +=
          t.g(j, i) * g[static_cast<std::size_t>(i)];
    for (std::int64_t i = 0; i < a; ++i)
      dd[static_cast<std::size_t>(j)] +=
          t.bt(j, i) * d[static_cast<std::size_t>(i)];
  }
  for (std::int64_t i = 0; i < e; ++i) {
    double y = 0.0;
    for (std::int64_t j = 0; j < a; ++j)
      y += t.at(i, j) * gg[static_cast<std::size_t>(j)] *
           dd[static_cast<std::size_t>(j)];
    double want = 0.0;
    for (std::int64_t kk = 0; kk < r; ++kk)
      want += g[static_cast<std::size_t>(kk)] *
              d[static_cast<std::size_t>(i + kk)];
    CB_CHECK_MSG(std::abs(y - want) < 1e-8,
                 "Winograd transform self-check failed for F(" << e << ","
                                                               << r << ")");
  }
  return t;
}

std::uint64_t wino_matmul(const double* A, const float* B, float* out,
                          std::int64_t rows_a, std::int64_t inner,
                          std::int64_t cols_b) {
  std::uint64_t macs = 0;
  for (std::int64_t i = 0; i < rows_a; ++i) {
    for (std::int64_t j = 0; j < cols_b; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < inner; ++p) {
        const double a = A[i * inner + p];
        if (a == 0.0) continue;
        acc += a * static_cast<double>(B[p * cols_b + j]);
        ++macs;
      }
      out[i * cols_b + j] = static_cast<float>(acc);
    }
  }
  return macs;
}

std::uint64_t wino_sandwich(const double* M, std::int64_t rows,
                            std::int64_t inner, const float* D, float* out,
                            float* scratch) {
  // scratch = M * D  (rows x inner);  out = scratch * M^T (rows x rows).
  std::uint64_t macs = wino_matmul(M, D, scratch, rows, inner, inner);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < rows; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < inner; ++p) {
        const double m = M[j * inner + p];
        if (m == 0.0) continue;
        acc += static_cast<double>(scratch[i * inner + p]) * m;
        ++macs;
      }
      out[i * rows + j] = static_cast<float>(acc);
    }
  }
  return macs;
}

std::uint64_t wino_sandwich_macs(const double* M, std::int64_t rows,
                                 std::int64_t inner) {
  const std::uint64_t nnz = static_cast<std::uint64_t>(
      std::count_if(M, M + rows * inner, [](double m) { return m != 0.0; }));
  return nnz * static_cast<std::uint64_t>(rows + inner);
}

}  // namespace convbound
