// DAG generators for the algorithms analysed in the paper.
//
// The builder's insertion order doubles as the execution order of the pebble
// game, so each generator exposes scheduling knobs (tile sizes, fused vs
// phased Winograd) that reproduce the paper's dataflows as vertex orders.
#pragma once

#include <cstdint>

#include "convbound/pebble/dag.hpp"

namespace convbound {

/// Left-deep summation tree over `inputs`; returns the root.
/// Adds k-1 vertices: k-2 internal + 1 root (Lemma 4.7).
VertexId add_summation_tree(DagBuilder& b, std::span<const VertexId> inputs);

/// Linear combination tree (Lemma 4.13): every input is first scaled by a
/// coefficient held permanently in fast memory (one unary vertex each), then
/// summed. Adds 2k-1 vertices: 2k-2 internal + 1 root.
VertexId add_linear_combination_tree(DagBuilder& b,
                                     std::span<const VertexId> inputs);

/// Shape of a (single image) direct convolution DAG.
struct ConvDagShape {
  std::int64_t cin = 1, hin = 3, win = 3;
  std::int64_t cout = 1, ker = 3;  // square kernel
  std::int64_t stride = 1;

  std::int64_t hout() const { return (hin - ker) / stride + 1; }
  std::int64_t wout() const { return (win - ker) / stride + 1; }
};

/// Output tile processed as a unit; (1,1,1) is the naive one-output-at-a-time
/// schedule, the paper's dataflow uses x*y = R*z sized tiles.
struct TileSpec {
  std::int64_t x = 1, y = 1, z = 1;  // height, width, channels of out tile
};

/// Direct convolution DAG (Section 4.2): step 1 products + step 2 summation
/// trees. Construction order = execution order: per output tile, slide along
/// the input channel direction accumulating partial sums (Section 5.2).
Dag direct_conv_dag(const ConvDagShape& shape, const TileSpec& tile = {});

/// How the Winograd DAG is scheduled.
enum class WinogradOrder {
  kFused,   ///< per tile: transform, multiply, reduce, inverse-transform
  kPhased,  ///< all of step 1, then all of step 2, ... (materialises P, J)
};

struct WinogradDagShape {
  std::int64_t cin = 1;
  std::int64_t tiles_h = 1, tiles_w = 1;  ///< output is (e*tiles) square
  std::int64_t cout = 1;
  std::int64_t e = 2, r = 3;  ///< F(e x e, r x r); stride is always 1

  std::int64_t alpha() const { return e + r - 1; }  ///< transformed tile edge
  std::int64_t hin() const { return e * tiles_h + r - 1; }
  std::int64_t win() const { return e * tiles_w + r - 1; }
};

/// Winograd DAG (Section 4.3): the four sub-computations of Figure 5.
Dag winograd_dag(const WinogradDagShape& shape,
                 WinogradOrder order = WinogradOrder::kFused);

/// Classical C = A*B matrix multiplication DAG with summation trees, used to
/// cross-check the pebble game against the Hong-Kung bound.
Dag matmul_dag(std::int64_t m, std::int64_t k, std::int64_t n,
               std::int64_t tile_m = 1, std::int64_t tile_n = 1);

}  // namespace convbound
