// Closed-form I/O lower bounds and dataflow I/O predictions for the two
// convolution algorithms (Sections 4.2, 4.3, 5.2, 5.3).
//
// All quantities are in *elements* (values moved), matching the red-blue
// pebble game; multiply by sizeof(float) for bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "convbound/bounds/composite.hpp"
#include "convbound/tensor/conv_shape.hpp"

namespace convbound {

// ---------------------------------------------------------------- direct --

/// |V_inter ∪ V_out| of the direct-convolution DAG (Lemma 4.8):
/// (2*Wker*Hker*Cin - 1) * Wout*Hout*Cout, per image; batched multiplies.
double direct_conv_dag_vertices(const ConvShape& s);

/// phi/psi of the direct convolution's two steps (Lemmas 4.9, 4.10), for use
/// with the composite evaluator. S is the fast-memory size in elements.
std::vector<SubComputation> direct_conv_steps(const ConvShape& s, double S);

/// T(S) <= 4*S*sqrt(R*S) + S - 1 (Lemma 4.11).
double direct_conv_T(const ConvShape& s, double S);

/// Theorem 4.12 in its exact proof form Q >= S*(|V|/T(2S) - 1).
double direct_conv_lower_bound(const ConvShape& s, double S);

/// Headline asymptotic form: Wker*Hker*Cin*Wout*Hout*Cout / (4*sqrt(2*R*S)).
double direct_conv_lower_bound_leading(const ConvShape& s, double S);

/// Equation (20): reads for the Section 5.2 dataflow with an x*y*z output
/// tile (x along H_out, y along W_out, z along C_out).
double direct_dataflow_reads(const ConvShape& s, std::int64_t x,
                             std::int64_t y, std::int64_t z);

/// Equation (21): total dataflow I/O with N_p processors sharing fast memory
/// S (each block uses S/N_p); picks the optimal tile internally.
double direct_dataflow_io(const ConvShape& s, double S, int np);

/// Minimum of Equation (20) over the tile box [1,x_max]x[1,y_max]x[1,z_max].
/// Rewriting (20) as reads = B*HWC_out*KKC_in*(1/(x*y) + 1/(R*z)) shows it
/// is strictly decreasing in each of x, y and z, so the box minimum sits at
/// the upper corner — an O(1) range query. Used by the branch-and-bound
/// tuner as an admissible per-subtree I/O floor. When the kernel is smaller
/// than the stride, Eq 20's mu^2 input rows and columns per output overstate
/// what a tile loads; the input term then uses min(mu,kh)*min(mu,kw).
double direct_dataflow_reads_min(const ConvShape& s, std::int64_t x_max,
                                 std::int64_t y_max, std::int64_t z_max);

// -------------------------------------------------------------- winograd --

/// |V_inter ∪ V_out| of the Winograd DAG (Lemma 4.14's exact count, not just
/// the O-form): per (tile, cout) F(e,r) instance, summed over the image.
double winograd_dag_vertices(const ConvShape& s, std::int64_t e);

/// phi/psi of the four Winograd steps (Lemmas 4.15-4.18).
std::vector<SubComputation> winograd_steps(const ConvShape& s, std::int64_t e,
                                           double S);

/// T(S) via the explicit inequality (18).
double winograd_T(const ConvShape& s, std::int64_t e, double S);

/// Theorem 4.20 in exact proof form Q >= S*(|V|/T(2S) - 1).
double winograd_lower_bound(const ConvShape& s, std::int64_t e, double S);

/// Headline form: Wout*Hout*Cout*Cin*(e+r-1)*r / (e*sqrt(S)).
double winograd_lower_bound_leading(const ConvShape& s, std::int64_t e,
                                    double S);

/// Equation (22): reads for the Section 5.3 dataflow with an x*y*z tile.
double winograd_dataflow_reads(const ConvShape& s, std::int64_t e,
                               std::int64_t x, std::int64_t y, std::int64_t z);

/// Total Winograd dataflow I/O with N_p processors (Section 5.3's choice
/// 2*(e+r-1)^2/e^2 * xyz ~= S/N_p).
double winograd_dataflow_io(const ConvShape& s, std::int64_t e, double S,
                            int np);

/// Minimum of Equation (22) over the tile box [1,x_max]x[1,y_max]x[1,z_max]:
/// reads = B*Cin*HWC_out*(1/z + r^2/(x*y)), strictly decreasing in each
/// coordinate, so again evaluated at the upper corner.
double winograd_dataflow_reads_min(const ConvShape& s, std::int64_t e,
                                   std::int64_t x_max, std::int64_t y_max,
                                   std::int64_t z_max);

// ---------------------------------------------------- optimality condition --

/// The paper's optimality condition x*y = R*z solved under a tile budget of
/// `budget` output elements: z = sqrt(budget/R), x*y = sqrt(budget*R),
/// clamped to the actual output dimensions.
struct OptimalTile {
  std::int64_t x = 1, y = 1, z = 1;
};
OptimalTile optimal_output_tile(const ConvShape& s, double budget_elems);

/// Deviation from the optimality condition: |log(x*y / (R*z))|; zero when
/// the condition holds exactly. Used to rank tuner configurations.
double optimality_residual(const ConvShape& s, std::int64_t x, std::int64_t y,
                           std::int64_t z);

}  // namespace convbound
