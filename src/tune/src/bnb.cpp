#include "convbound/tune/bnb.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/machine/machine_spec.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

namespace {

/// Heap ordering: "worse" nodes sink. Best = smallest achievable-runtime
/// estimate (Node::heur), then smallest admissible bound, then ties broken
/// toward deeper nodes (closer to a measurable leaf), then creation order —
/// a total order with no RNG or pointer identity, so traversal is
/// deterministic across platforms.
bool node_worse(const double a_heur, const double a_bound, const int a_depth,
                const std::uint64_t a_id, const double b_heur,
                const double b_bound, const int b_depth,
                const std::uint64_t b_id) {
  if (a_heur != b_heur) return a_heur > b_heur;
  if (a_bound != b_bound) return a_bound > b_bound;
  if (a_depth != b_depth) return a_depth < b_depth;
  return a_id > b_id;
}

/// Measurement pop rank for one configuration. The subtree bound cannot
/// rank thread splits and layouts (Eq 20/22 do not see them), so surfaced
/// configs are ordered by the roofline model evaluated with the config's
/// actual launch geometry and the analytic dataflow traffic — this captures
/// occupancy and thread-efficiency effects, steering measurement toward the
/// likely-best configs across *all* opened leaves first so the incumbent
/// tightens as early as possible.
double leaf_rank(const SearchDomain& d, const ConvConfig& cfg) {
  const ConvShape& s = d.shape();
  LaunchConfig lc;
  lc.num_blocks = s.batch * ceil_div(s.hout(), cfg.x) *
                  ceil_div(s.wout(), cfg.y) * ceil_div(s.cout, cfg.z);
  lc.threads_per_block = cfg.threads();
  lc.smem_bytes_per_block = cfg.smem_budget;
  const double reads =
      d.options().winograd
          ? winograd_dataflow_reads(s, d.options().e, cfg.x, cfg.y, cfg.z)
          : direct_dataflow_reads(s, cfg.x, cfg.y, cfg.z);
  const double bytes =
      static_cast<double>(sizeof(float)) *
      (reads + static_cast<double>(s.output_elems()));
  return model_time(d.spec(), lc, static_cast<std::uint64_t>(bytes),
                    static_cast<std::uint64_t>(s.flops()));
}

/// Roofline estimate for one (x, y, z, S_b) lattice point with its real
/// block grid, an idealised dense thread split (all tile elements in
/// flight, clamped at the block limit), and the analytic dataflow traffic.
double point_estimate_seconds(const SearchDomain& d, std::int64_t x,
                              std::int64_t y, std::int64_t z,
                              std::int64_t smem) {
  const ConvShape& s = d.shape();
  LaunchConfig lc;
  lc.num_blocks = s.batch * ceil_div(s.hout(), x) * ceil_div(s.wout(), y) *
                  ceil_div(s.cout, z);
  lc.threads_per_block =
      std::clamp<std::int64_t>(x * y * z, 1, d.spec().max_threads_per_block);
  lc.smem_bytes_per_block = smem;
  const double reads =
      d.options().winograd
          ? winograd_dataflow_reads(s, d.options().e, x, y, z)
          : direct_dataflow_reads(s, x, y, z);
  const double bytes =
      static_cast<double>(sizeof(float)) *
      (reads + static_cast<double>(s.output_elems()));
  return model_time(d.spec(), lc, static_cast<std::uint64_t>(bytes),
                    static_cast<std::uint64_t>(s.flops()));
}

/// Node::heur for `box`: the smallest point_estimate_seconds over the box's
/// feasible lattice points — the modelled runtime of its most promising
/// configuration. Unlike subtree_lower_seconds this sees each launch
/// geometry's occupancy and thread-efficiency penalties (the optimum
/// usually sits at *moderate* tiles, not the I/O-minimising corner), so it
/// separates boxes even when the admissible bound is a flat compute floor.
/// A pure function of the box (deterministic) that only influences pop
/// order — never pruning — so it needs no admissibility argument. Cost is
/// |box lattice| roofline evaluations, paid once per created node.
double box_heuristic_seconds(const SearchDomain& d, const DomainBox& box) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t si = box.s_lo; si < box.s_hi; ++si) {
    for (std::size_t zi = box.z_lo; zi < box.z_hi; ++zi) {
      for (std::size_t xi = box.x_lo; xi < box.x_hi; ++xi) {
        for (std::size_t yi = box.y_lo; yi < box.y_hi; ++yi) {
          DomainBox point;
          point.x_lo = xi, point.x_hi = xi + 1;
          point.y_lo = yi, point.y_hi = yi + 1;
          point.z_lo = zi, point.z_hi = zi + 1;
          point.s_lo = si, point.s_hi = si + 1;
          if (d.count_configs(point) == 0) continue;
          best = std::min(
              best, point_estimate_seconds(d, d.xs()[xi], d.ys()[yi],
                                           d.zs()[zi], d.smem_choices()[si]));
        }
      }
    }
  }
  return best;
}

}  // namespace

double subtree_lower_seconds(const SearchDomain& domain,
                             const DomainBox& box) {
  CB_CHECK(box.x_hi > box.x_lo && box.y_hi > box.y_lo &&
           box.z_hi > box.z_lo && box.s_hi > box.s_lo);
  const ConvShape& s = domain.shape();
  const MachineSpec& spec = domain.spec();
  // Candidate lists are ascending for tiles, descending for S_b, so the
  // box's monotone-minimising corner is (x_hi-1, y_hi-1, z_hi-1, s_lo).
  const std::int64_t x_max = domain.xs()[box.x_hi - 1];
  const std::int64_t y_max = domain.ys()[box.y_hi - 1];
  const std::int64_t z_max = domain.zs()[box.z_hi - 1];
  const std::int64_t smem_max = domain.smem_choices()[box.s_lo];
  const double S_elems =
      static_cast<double>(smem_max) / static_cast<double>(sizeof(float));

  double reads_min = 0, thm = 0, flops_floor = 0;
  if (domain.options().winograd) {
    const std::int64_t e = domain.options().e;
    reads_min = winograd_dataflow_reads_min(s, e, x_max, y_max, z_max);
    thm = winograd_lower_bound(s, e, S_elems);
    // Compute floor: one flop per elementwise multiply of the transformed
    // tiles — a strict undercount of any Winograd execution (which also
    // pays transforms and accumulation).
    const std::int64_t r = s.kh;
    const double a2 = static_cast<double>((e + r - 1) * (e + r - 1));
    const double tiles = static_cast<double>(s.batch) *
                         static_cast<double>(ceil_div(s.hout(), e)) *
                         static_cast<double>(ceil_div(s.wout(), e));
    flops_floor = tiles * static_cast<double>(s.cin) *
                  static_cast<double>(s.cout) * a2;
  } else {
    reads_min = direct_dataflow_reads_min(s, x_max, y_max, z_max);
    thm = direct_conv_lower_bound(s, S_elems);
    flops_floor = static_cast<double>(s.flops());
  }
  // Every config in the box also writes the full output once, and no
  // execution moves fewer elements than the red-blue pebble bound at the
  // box's largest per-block fast memory (Thm 4.12/4.20; Q(S) is decreasing
  // in S). The roofline uses the machine's *ideal* bandwidth and peak —
  // model_time only ever degrades both — plus the unavoidable launch cost.
  const double writes = static_cast<double>(s.output_elems());
  const double io_elems = std::max(reads_min + writes, thm);
  const double t_mem =
      static_cast<double>(sizeof(float)) * io_elems / spec.global_bw;
  const double t_cmp = flops_floor / spec.peak_flops;
  return spec.launch_overhead + std::max(t_mem, t_cmp);
}

void BranchAndBoundTuner::push_node(Node node) {
  nodes_.push_back(std::move(node));
  std::push_heap(nodes_.begin(), nodes_.end(),
                 [](const Node& a, const Node& b) {
                   return node_worse(a.heur, a.bound, a.depth, a.id, b.heur,
                                     b.bound, b.depth, b.id);
                 });
}

BranchAndBoundTuner::Node BranchAndBoundTuner::pop_node() {
  std::pop_heap(nodes_.begin(), nodes_.end(),
                [](const Node& a, const Node& b) {
                  return node_worse(a.heur, a.bound, a.depth, a.id, b.heur,
                                    b.bound, b.depth, b.id);
                });
  Node node = std::move(nodes_.back());
  nodes_.pop_back();
  return node;
}

namespace {
/// Measurement-pool ordering: smallest rank first, creation order as the
/// deterministic tie-break.
bool pending_worse_rank(const double a_rank, const std::uint64_t a_seq,
                        const double b_rank, const std::uint64_t b_seq) {
  if (a_rank != b_rank) return a_rank > b_rank;
  return a_seq > b_seq;
}
}  // namespace

void BranchAndBoundTuner::push_pending(Pending p) {
  pending_.push_back(std::move(p));
  std::push_heap(pending_.begin(), pending_.end(),
                 [](const Pending& a, const Pending& b) {
                   return pending_worse_rank(a.rank, a.seq, b.rank, b.seq);
                 });
}

BranchAndBoundTuner::Pending BranchAndBoundTuner::pop_pending() {
  std::pop_heap(pending_.begin(), pending_.end(),
                [](const Pending& a, const Pending& b) {
                  return pending_worse_rank(a.rank, a.seq, b.rank, b.seq);
                });
  Pending p = std::move(pending_.back());
  pending_.pop_back();
  return p;
}

void BranchAndBoundTuner::on_reset() {
  nodes_.clear();
  next_id_ = 0;
  pending_.clear();
  next_seq_ = 0;
  nodes_expanded_ = 0;
  subtrees_pruned_ = 0;
  leaves_opened_ = 0;
  configs_pruned_ = 0;

  // Seeds first (deduplicated, smem snapped like AteTuner's template
  // seeds): rank/bound of -inf puts them ahead of every surfaced config and
  // makes them unprunable. They establish the incumbent that makes pruning
  // bite.
  std::unordered_set<ConvConfig> dedup;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (ConvConfig seed : opts_.seeds) {
    if (seed.smem_budget == 0 && !domain().smem_choices().empty()) {
      seed.smem_budget = domain().smem_choices().front();
    }
    if (dedup.insert(seed).second) {
      push_pending(Pending{seed, -kInf, -kInf, next_seq_++});
    }
  }

  const DomainBox root = domain().full_box();
  if (domain().count_configs(root) > 0) {
    Node n;
    n.box = root;
    n.bound = subtree_lower_seconds(domain(), root);
    n.heur = box_heuristic_seconds(domain(), root);
    n.depth = 0;
    n.id = next_id_++;
    push_node(std::move(n));
  }
}

void BranchAndBoundTuner::expand_once(const double incumbent) {
  Node node = pop_node();
  if (node.bound >= incumbent) {
    ++subtrees_pruned_;
    configs_pruned_ += domain().count_configs(node.box);
    return;
  }
  if (node.box.singleton()) {
    ++leaves_opened_;
    // Surface every configuration of the leaf into the measurement pool,
    // each carrying the leaf's admissible bound (still valid per config —
    // it lower-bounds everything in the box), so a later, tighter incumbent
    // can cut it at pop time without ever measuring it.
    for (const ConvConfig& cfg : domain().enumerate_configs(node.box)) {
      push_pending(
          Pending{cfg, leaf_rank(domain(), cfg), node.bound, next_seq_++});
    }
    return;
  }
  ++nodes_expanded_;
  for (const DomainBox& child : domain().partition(node.box)) {
    const std::uint64_t count = domain().count_configs(child);
    if (count == 0) continue;  // infeasible slice: nothing inside
    // Bounds are monotone down the tree (a child's corner is no larger),
    // but max with the parent keeps that invariant explicit.
    const double bound =
        std::max(node.bound, subtree_lower_seconds(domain(), child));
    if (bound >= incumbent) {
      ++subtrees_pruned_;
      configs_pruned_ += count;
      continue;
    }
    Node c;
    c.box = child;
    c.bound = bound;
    c.heur = box_heuristic_seconds(domain(), child);
    c.depth = node.depth + 1;
    c.id = next_id_++;
    push_node(std::move(c));
  }
}

std::vector<ConvConfig> BranchAndBoundTuner::propose_batch(int max_batch) {
  const double incumbent = result().best_seconds;
  const std::size_t want =
      std::min(static_cast<std::size_t>(kBatch),
               static_cast<std::size_t>(max_batch));
  std::vector<ConvConfig> out;
  while (out.size() < want) {
    // Surface configs while the most promising unexpanded box could still
    // beat the best already-surfaced config (strict <, so ties measure
    // before expanding further). heur lower-bounds the pop rank of every
    // descendant config (same roofline, idealised thread split), so when
    // the comparison flips, the pool front really is the globally
    // best-ranked unmeasured configuration.
    while (!nodes_.empty() &&
           (pending_.empty() || nodes_.front().heur < pending_.front().rank)) {
      expand_once(incumbent);
    }
    if (pending_.empty()) break;  // frontier empty too: exhausted, certified
    Pending p = pop_pending();
    if (p.bound >= incumbent) {
      // The incumbent tightened past this config's leaf bound after it was
      // surfaced: provably not optimal, drop unmeasured.
      ++configs_pruned_;
      continue;
    }
    out.push_back(std::move(p.cfg));
  }
  return out;
}

bool BranchAndBoundTuner::exhausted() const {
  return nodes_.empty() && pending_.empty();
}

void BranchAndBoundTuner::on_observe(const std::vector<ConvConfig>&,
                                     const std::vector<Measurement>&) {
  // The incumbent lives in the base trace; pruning reads it in
  // propose_batch, so there is no strategy state to update here.
}

std::vector<std::pair<std::string, double>> BranchAndBoundTuner::stats()
    const {
  return {
      {"nodes_expanded", static_cast<double>(nodes_expanded_)},
      {"subtrees_pruned", static_cast<double>(subtrees_pruned_)},
      {"leaves_opened", static_cast<double>(leaves_opened_)},
      {"configs_pruned", static_cast<double>(configs_pruned_)},
      {"frontier_open", static_cast<double>(nodes_.size())},
      {"pool_pending", static_cast<double>(pending_.size())},
      {"proven_optimal", proven_optimal() ? 1.0 : 0.0},
  };
}

}  // namespace convbound
