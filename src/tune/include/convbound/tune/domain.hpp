// The configuration search domain (paper Table 1).
//
// The TVM-like baseline domain contains every feasible tiling (divisor tile
// sizes, thread factors, layouts, shared-memory budgets that physically
// fit). The paper's auto-tuning engine additionally prunes with the I/O
// optimality condition x*y = R*z, which implies z <= sqrt(S_b/R) and
// x*y <= sqrt(S_b*R) (Section 6.2) — that pruning is exactly what Table 2's
// "Size of Search Space" columns compare.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "convbound/conv/conv_config.hpp"
#include "convbound/machine/machine_spec.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {

struct DomainOptions {
  /// Apply the optimality-condition pruning (ours). false = TVM-like space.
  bool prune_with_optimality = true;
  /// Tune the Winograd dataflow instead of the direct one.
  bool winograd = false;
  std::int64_t e = 2;  ///< Winograd output tile edge
};

/// An axis-aligned sub-box of the tile lattice: half-open index ranges into
/// the candidate lists xs()/ys()/zs()/smem_choices(). Thread splits and
/// layouts are never partitioned — they stay free until a singleton box
/// (leaf) is enumerated, because the per-subtree I/O bound cannot
/// discriminate them (Equations 20/22 depend only on x, y, z and S_b).
struct DomainBox {
  std::size_t x_lo = 0, x_hi = 0;
  std::size_t y_lo = 0, y_hi = 0;
  std::size_t z_lo = 0, z_hi = 0;
  std::size_t s_lo = 0, s_hi = 0;

  /// Exactly one (x, y, z, S_b) lattice point left.
  bool singleton() const {
    return x_hi - x_lo == 1 && y_hi - y_lo == 1 && z_hi - z_lo == 1 &&
           s_hi - s_lo == 1;
  }
  bool operator==(const DomainBox&) const = default;
};

class SearchDomain {
 public:
  static SearchDomain build(const ConvShape& shape, const MachineSpec& spec,
                            const DomainOptions& opts = {});

  const ConvShape& shape() const { return shape_; }
  const MachineSpec& spec() const { return spec_; }
  const DomainOptions& options() const { return opts_; }

  /// Exact number of valid configurations (count_configs of the full box).
  std::uint64_t size() const { return size_; }

  /// True when cfg satisfies every domain constraint.
  bool contains(const ConvConfig& cfg) const;

  /// Uniform-ish sample (rejection over the factor lattice).
  ConvConfig sample(Rng& rng) const;

  /// All lattice moves of one step (adjacent divisor in one dimension,
  /// neighbouring thread split, next layout, next smem budget) that stay
  /// inside the domain.
  std::vector<ConvConfig> neighbors(const ConvConfig& cfg) const;

  // Deterministic sub-box partitioning, shared by the branch-and-bound
  // tuner and the exhaustive-enumeration certificate test. All iteration
  // orders below are fixed functions of the candidate lists — no RNG, no
  // hashing — so subtree traversal is identical across platforms and runs.

  /// The box covering the whole lattice.
  DomainBox full_box() const;

  /// Splits `box` along its first non-singleton axis — fixed order S_b,
  /// z, x, y — into one singleton-width slice per candidate index, in
  /// index order. Children tile the parent exactly (disjoint, complete).
  /// Returns {} for a singleton box.
  std::vector<DomainBox> partition(const DomainBox& box) const;

  /// Exact number of valid configurations inside `box` (same count the
  /// domain's total size() sums over the full box): a sum over the box's
  /// (x, y, z) cells of thread splits x S_b indices in the box that fit x
  /// layouts, read from the feasibility table. O(1) for a lattice point.
  std::uint64_t count_configs(const DomainBox& box) const;

  /// Every valid configuration inside `box`, in fixed lattice order
  /// (x, y, z, S_b indices ascending, then thread splits nxt/nyt/nzt
  /// ascending, then kAllLayouts order). Matches count_configs.
  std::vector<ConvConfig> enumerate_configs(const DomainBox& box) const;

  const std::vector<std::int64_t>& xs() const { return xs_; }
  const std::vector<std::int64_t>& ys() const { return ys_; }
  const std::vector<std::int64_t>& zs() const { return zs_; }
  const std::vector<std::int64_t>& smem_choices() const { return smems_; }

 private:
  /// One (x, y, z) cell of the feasibility table. Bit si of smem_mask is
  /// set when smem_choices()[si] holds the tile's footprint (and, when
  /// pruning, meets the Section 6.2 limits); splits counts the (nxt, nyt,
  /// nzt) triples within the block's thread limit (0 when no S_b fits).
  struct Cell {
    std::uint32_t splits = 0;
    std::uint32_t smem_mask = 0;
  };

  /// Thread-split candidates of list entry `t` of xs_, ys_, zs_ in turn.
  std::span<const std::int64_t> splits(std::size_t t) const {
    return {splits_.data() + split_begin_[t],
            splits_.data() + split_begin_[t + 1]};
  }
  std::span<const std::int64_t> x_splits(std::size_t xi) const {
    return splits(xi);
  }
  std::span<const std::int64_t> y_splits(std::size_t yi) const {
    return splits(xs_.size() + yi);
  }
  std::span<const std::int64_t> z_splits(std::size_t zi) const {
    return splits(xs_.size() + ys_.size() + zi);
  }
  const Cell& cell(std::size_t xi, std::size_t yi, std::size_t zi) const {
    return cells_[(xi * ys_.size() + yi) * zs_.size() + zi];
  }
  /// The lattice point (xi, yi, zi, si) holds at least one configuration.
  bool fits(std::size_t xi, std::size_t yi, std::size_t zi,
            std::size_t si) const {
    return (cell(xi, yi, zi).smem_mask >> si) & 1u;
  }
  std::int64_t footprint_bytes(std::int64_t x, std::int64_t y,
                               std::int64_t z) const;

  ConvShape shape_;
  MachineSpec spec_;
  DomainOptions opts_;
  std::vector<std::int64_t> xs_, ys_, zs_;  // candidate tile sizes (ascending)
  std::vector<std::int64_t> smems_;         // candidate S_b (bytes, descending)
  // Thread-split candidates per tile (divisors capped at the per-dimension
  // thread limit), flat: entry t's list is splits_[split_begin_[t],
  // split_begin_[t + 1]). And the feasibility table over xs_ x ys_ x zs_
  // (row-major). Both are built once: contains(), sample(), neighbors() and
  // count_configs() run on every tuning trial or bnb node and only read
  // them.
  std::vector<std::int64_t> splits_;
  std::vector<std::uint32_t> split_begin_;
  std::vector<Cell> cells_;
  std::uint64_t size_ = 0;
};

}  // namespace convbound
