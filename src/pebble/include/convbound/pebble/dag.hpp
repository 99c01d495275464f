// Computation DAGs for red-blue pebble game analysis.
//
// Vertices are numbered in insertion order, which the builder guarantees to
// be topological (a vertex's predecessors must already exist). Edges are
// stored CSR-style in both directions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace convbound {

using VertexId = std::uint32_t;

struct Dag {
  // predecessors, CSR
  std::vector<std::uint32_t> pred_offsets;
  std::vector<VertexId> preds;
  // successors, CSR (derived)
  std::vector<std::uint32_t> succ_offsets;
  std::vector<VertexId> succs;
  std::vector<std::uint8_t> is_output;

  std::size_t num_vertices() const { return pred_offsets.size() - 1; }
  std::size_t num_inputs = 0;    ///< vertices with no predecessors
  std::size_t num_outputs = 0;   ///< vertices marked as algorithm outputs
  std::size_t num_internal() const {
    return num_vertices() - num_inputs - num_outputs;
  }
  std::size_t max_in_degree = 0;

  bool is_input(VertexId v) const {
    return pred_offsets[v + 1] == pred_offsets[v];
  }
  std::span<const VertexId> predecessors(VertexId v) const {
    return {preds.data() + pred_offsets[v],
            preds.data() + pred_offsets[v + 1]};
  }
  std::span<const VertexId> successors(VertexId v) const {
    return {succs.data() + succ_offsets[v],
            succs.data() + succ_offsets[v + 1]};
  }
};

/// Incremental DAG constructor. Insertion order must be topological; this is
/// enforced (predecessor ids must be smaller than the new vertex's id).
class DagBuilder {
 public:
  /// Adds a source vertex (an algorithm input).
  VertexId add_input();

  /// Adds a compute vertex depending on `preds` (all previously added).
  VertexId add_vertex(std::span<const VertexId> preds);
  VertexId add_vertex(std::initializer_list<VertexId> preds) {
    return add_vertex(std::span<const VertexId>(preds.begin(), preds.size()));
  }

  /// Marks a vertex as an algorithm output (must be stored at game end).
  void mark_output(VertexId v);

  /// Finalises the DAG (computes successor CSR and degree stats).
  Dag build();

 private:
  std::vector<std::uint32_t> pred_offsets_ = {0};
  std::vector<VertexId> preds_;
  std::vector<std::uint8_t> is_output_;
};

}  // namespace convbound
