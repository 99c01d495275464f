// Bound-guided branch-and-bound search (ROADMAP item 2): the paper's I/O
// lower bounds used to *prune*, not just to score.
//
// The tile lattice (x, y, z, S_b) is recursively partitioned into sub-boxes
// (DomainBox); each sub-box gets an admissible lower bound on the modelled
// runtime of every configuration inside it (subtree_lower_seconds). A box
// whose bound cannot beat the measured incumbent is discarded — its
// configurations are *provably* not optimal under the machine model and are
// never measured. Surviving singleton boxes (leaves) enumerate their free
// thread-split x layout axes in a deterministic order and measure through
// the shared Measurer. When the frontier empties the incumbent carries an
// optimality certificate: every unmeasured configuration was covered by an
// admissible pruned bound (cross-checked exhaustively in tune_bnb_test).
#pragma once

#include <cstdint>
#include <vector>

#include "convbound/tune/tuners.hpp"

namespace convbound {

struct BnbOptions {
  /// Configurations measured before the search starts (template-manager
  /// knowledge, e.g. the analytic default): a strong initial incumbent is
  /// what makes early pruning bite.
  std::vector<ConvConfig> seeds;
};

/// Admissible lower bound, in seconds, on the modelled runtime of every
/// configuration inside `box`:
///
///   launch_overhead
///     + max( 4 * max(corner-min Eq 20/22 reads + writes, Thm 4.12/4.20 at
///                    the box's largest S_b) / global_bw,
///            flops floor / peak_flops )
///
/// Admissibility against the simulator (see docs/tuning.md for the full
/// argument): the kernels load at least the Eq 20/22 analytic elements
/// (divisor tiles => exact grids; the actual input halo only adds reads for
/// kernel >= stride, which every practical shape satisfies), every element
/// costs >= sizeof(float) counted bytes, the roofline's efficiency factors
/// only lower bandwidth/peak below the ideal values used here, and Eq 20/22
/// are monotone so their box minimum is the upper corner (the *_reads_min
/// range queries in src/bounds).
double subtree_lower_seconds(const SearchDomain& domain, const DomainBox& box);

class BranchAndBoundTuner : public Tuner {
 public:
  /// Configurations per proposed batch (surfaced configurations are
  /// re-checked against the incumbent at every pop, so a tighter incumbent
  /// still cuts off configs whose leaf bound it now covers).
  static constexpr int kBatch = 16;

  explicit BranchAndBoundTuner(const BnbOptions& opts = {}) : opts_(opts) {}
  std::string name() const override { return "branch-and-bound(bounds)"; }

  std::vector<ConvConfig> propose_batch(int max_batch) override;
  /// Frontier and pending-leaf queue both empty: every configuration was
  /// measured or pruned by an admissible bound, so the incumbent is a
  /// certified optimum of the domain under the machine model.
  bool exhausted() const override;

  std::vector<std::pair<std::string, double>> stats() const override;

  std::uint64_t nodes_expanded() const { return nodes_expanded_; }
  std::uint64_t subtrees_pruned() const { return subtrees_pruned_; }
  std::uint64_t leaves_opened() const { return leaves_opened_; }
  /// Configurations proven non-optimal without ever being measured.
  std::uint64_t configs_pruned() const { return configs_pruned_; }
  bool proven_optimal() const { return exhausted() && trials() > 0; }

 protected:
  void on_reset() override;
  void on_observe(const std::vector<ConvConfig>& cfgs,
                  const std::vector<Measurement>& ms) override;

 private:
  struct Node {
    DomainBox box;
    double bound = 0;  ///< subtree_lower_seconds, monotone down the tree
    /// Pop-order estimate: modelled runtime of the box's most promising
    /// configuration *with its real launch geometry* (occupancy, thread
    /// efficiency). The admissible bound is often a flat compute floor that
    /// cannot rank boxes; this steers exploration toward boxes that are
    /// actually fast so the incumbent tightens early. Ordering-only — every
    /// pruning decision still uses `bound`, so exactness is unaffected.
    double heur = 0;
    int depth = 0;
    std::uint64_t id = 0;  ///< creation order, the deterministic tie-break
  };

  /// A surfaced configuration awaiting measurement: its pop rank (roofline
  /// with real launch geometry), the admissible bound inherited from its
  /// leaf box (-inf for seeds, which are always measured), and a creation
  /// sequence number as the deterministic tie-break.
  struct Pending {
    ConvConfig cfg;
    double rank = 0;
    double bound = 0;
    std::uint64_t seq = 0;
  };

  void push_node(Node node);
  Node pop_node();
  void push_pending(Pending p);
  Pending pop_pending();
  /// Pops one frontier node: prune it, open its leaf into pending_, or
  /// partition it into bounded children.
  void expand_once(double incumbent);

  BnbOptions opts_;

  // Best-first frontier (min heur, then min bound, then max depth, then min
  // id) kept as a binary heap over nodes_, interleaved with a best-first
  // measurement pool (min rank, then min seq) over pending_: propose
  // expands boxes only while the best box's estimate could beat the best
  // already-surfaced config, so measurements mix the top-ranked configs of
  // *many* leaves instead of draining one leaf at a time.
  std::vector<Node> nodes_;
  std::uint64_t next_id_ = 0;
  std::vector<Pending> pending_;
  std::uint64_t next_seq_ = 0;
  /// Node::heur's per-lattice-point roofline estimates, built at reset.
  std::vector<double> point_est_;

  std::uint64_t nodes_expanded_ = 0;
  std::uint64_t subtrees_pruned_ = 0;
  std::uint64_t leaves_opened_ = 0;
  std::uint64_t configs_pruned_ = 0;
};

}  // namespace convbound
