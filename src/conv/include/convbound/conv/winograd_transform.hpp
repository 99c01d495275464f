// Winograd minimal-filtering transform matrices F(e x e, r x r).
//
// Generated for arbitrary (e, r) by the transposed Cook-Toom construction:
// a bilinear linear-convolution algorithm over e+r-2 finite evaluation
// points plus the point at infinity is transposed (Tellegen's principle)
// into the correlation form  Y = A^T [ (G g G^T) ⊙ (B^T d B) ] A.
#pragma once

#include <cstdint>
#include <vector>

namespace convbound {

struct WinogradTransform {
  std::int64_t e = 2;  ///< outputs per tile edge
  std::int64_t r = 3;  ///< kernel edge
  std::int64_t a = 4;  ///< e + r - 1, transformed tile edge

  std::vector<double> AT;  ///< e x a output transform
  std::vector<double> G;   ///< a x r kernel transform
  std::vector<double> BT;  ///< a x a input transform

  double at(std::int64_t i, std::int64_t j) const { return AT[i * a + j]; }
  double g(std::int64_t i, std::int64_t j) const { return G[i * r + j]; }
  double bt(std::int64_t i, std::int64_t j) const { return BT[i * a + j]; }
};

/// Builds the transform for F(e x e, r x r). Supports e + r - 1 <= 8.
/// The construction is self-verified at build time against a random 1-D
/// correlation; an Error is thrown if the identity fails (should never
/// happen — it guards against bad evaluation-point choices).
WinogradTransform make_winograd_transform(std::int64_t e, std::int64_t r);

// --- dense helpers on row-major double/float matrices --------------------

/// out(rows_a x cols_b) = A(rows_a x inner) * B(inner x cols_b); double
/// accumulate, float storage. Zero coefficients of A are skipped (the
/// transforms are sparse); returns the number of multiply-adds performed.
std::uint64_t wino_matmul(const double* A, const float* B, float* out,
                          std::int64_t rows_a, std::int64_t inner,
                          std::int64_t cols_b);

/// V = BT * D * BT^T for an a x a tile (the 2-D input transform); likewise
/// usable for U = G*g*G^T and Y = AT*Pi*AT^T with the right dimensions.
/// rows x inner times inner x inner times inner x rows -> rows x rows.
/// Returns multiply-add count (sparsity-aware), so callers can report
/// honest FLOPs — real Winograd kernels exploit exactly this structure.
std::uint64_t wino_sandwich(const double* M, std::int64_t rows,
                            std::int64_t inner, const float* D, float* out,
                            float* scratch);

/// The multiply-add count wino_sandwich returns for `M`, without the
/// product: nnz(M) * (rows + inner).
std::uint64_t wino_sandwich_macs(const double* M, std::int64_t rows,
                                 std::int64_t inner);

}  // namespace convbound
