#include "convbound/tune/domain.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

namespace {

constexpr int kMaxThreadsPerDim = 32;

/// Divisors of n capped at n (ascending). For Winograd x/y, divisors of the
/// tile-count grid scaled by e.
std::vector<std::int64_t> tile_candidates(std::int64_t extent,
                                          std::int64_t multiple) {
  std::vector<std::int64_t> out;
  if (multiple <= 1) {
    out = divisors(extent);
  } else {
    for (std::int64_t d : divisors(ceil_div(extent, multiple)))
      out.push_back(d * multiple);
  }
  return out;
}

/// Appends the thread-split candidates of `tile`: its divisors up to the
/// per-dimension thread limit, ascending.
void append_thread_candidates(std::int64_t tile,
                              std::vector<std::int64_t>& out) {
  const std::int64_t top = std::min<std::int64_t>(tile, kMaxThreadsPerDim);
  for (std::int64_t d = 1; d <= top; ++d)
    if (tile % d == 0) out.push_back(d);
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Index of `v` in the ascending list, or kNone.
std::size_t index_of(const std::vector<std::int64_t>& list, std::int64_t v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  return it != list.end() && *it == v
             ? static_cast<std::size_t>(it - list.begin())
             : kNone;
}

}  // namespace

std::int64_t SearchDomain::footprint_bytes(std::int64_t x, std::int64_t y,
                                           std::int64_t z) const {
  ConvConfig cfg;
  cfg.x = x;
  cfg.y = y;
  cfg.z = z;
  return opts_.winograd ? winograd_fused_smem_bytes(shape_, opts_.e, cfg)
                        : direct_tiled_smem_bytes(shape_, cfg);
}

SearchDomain SearchDomain::build(const ConvShape& shape,
                                 const MachineSpec& spec,
                                 const DomainOptions& opts) {
  shape.validate();
  SearchDomain d;
  d.shape_ = shape;
  d.spec_ = spec;
  d.opts_ = opts;

  const std::int64_t mult = opts.winograd ? opts.e : 1;
  d.xs_ = tile_candidates(shape.hout(), mult);
  d.ys_ = tile_candidates(shape.wout(), mult);
  d.zs_ = divisors(shape.cout);
  // S_b candidates: halvings of S_sm/2 (two resident blocks minimum).
  for (std::int64_t sb = spec.shared_mem_per_sm / 2; sb >= 2048; sb /= 2)
    d.smems_.push_back(sb);
  CB_CHECK_MSG(d.smems_.size() < 32, "too many S_b candidates for the mask");

  for (const auto* tiles : {&d.xs_, &d.ys_, &d.zs_}) {
    for (std::int64_t tile : *tiles) {
      d.split_begin_.push_back(static_cast<std::uint32_t>(d.splits_.size()));
      append_thread_candidates(tile, d.splits_);
    }
  }
  d.split_begin_.push_back(static_cast<std::uint32_t>(d.splits_.size()));

  // Optimality-condition limits per S_b (Section 6.2): z <= sqrt(S_b/R) and
  // x*y <= sqrt(S_b*R), with S_b in elements.
  const double R = std::max(1.0, shape.reuse());
  std::vector<double> z_limit, xy_limit;
  for (std::int64_t smem : d.smems_) {
    const double sb =
        static_cast<double>(smem) / static_cast<double>(sizeof(float));
    z_limit.push_back(std::sqrt(sb / R) + 1e-9);
    xy_limit.push_back(std::sqrt(sb * R) + 1e-9);
  }

  // The feasibility table: per (x, y, z), the S_b indices whose budget holds
  // the footprint (and meets the limits when pruning), and the number of
  // thread splits within the block limit.
  d.cells_.resize(d.xs_.size() * d.ys_.size() * d.zs_.size());
  Cell* cell = d.cells_.data();
  std::vector<std::int64_t> xy_threads;  // nxt * nyt per split, ascending
  for (std::size_t xi = 0; xi < d.xs_.size(); ++xi) {
    for (std::size_t yi = 0; yi < d.ys_.size(); ++yi) {
      xy_threads.clear();
      for (std::int64_t a : d.x_splits(xi))
        for (std::int64_t b : d.y_splits(yi)) xy_threads.push_back(a * b);
      std::sort(xy_threads.begin(), xy_threads.end());
      for (std::size_t zi = 0; zi < d.zs_.size(); ++zi, ++cell) {
        const std::int64_t x = d.xs_[xi], y = d.ys_[yi], z = d.zs_[zi];
        const std::int64_t fp = d.footprint_bytes(x, y, z);
        for (std::size_t si = 0; si < d.smems_.size(); ++si) {
          if (fp > d.smems_[si]) continue;
          if (opts.prune_with_optimality &&
              (static_cast<double>(z) > z_limit[si] ||
               static_cast<double>(x * y) > xy_limit[si]))
            continue;
          cell->smem_mask |= 1u << si;
        }
        if (cell->smem_mask == 0) continue;
        // nxt*nyt*nzt <= limit  <=>  nxt*nyt <= limit / nzt.
        for (std::int64_t c : d.z_splits(zi))
          cell->splits += static_cast<std::uint32_t>(
              std::upper_bound(xy_threads.begin(), xy_threads.end(),
                               spec.max_threads_per_block / c) -
              xy_threads.begin());
      }
    }
  }

  d.size_ = d.count_configs(d.full_box());
  return d;
}

DomainBox SearchDomain::full_box() const {
  DomainBox box;
  box.x_hi = xs_.size();
  box.y_hi = ys_.size();
  box.z_hi = zs_.size();
  box.s_hi = smems_.size();
  return box;
}

std::vector<DomainBox> SearchDomain::partition(const DomainBox& box) const {
  std::vector<DomainBox> out;
  // Fixed split order S_b -> z -> x -> y: the smem budget and the z tile
  // dominate both the footprint constraint and the Eq 20/22 bound, so
  // fixing them first tightens child bounds fastest.
  auto slice = [&](std::size_t DomainBox::* lo, std::size_t DomainBox::* hi) {
    if (box.*hi - box.*lo <= 1) return false;
    for (std::size_t i = box.*lo; i < box.*hi; ++i) {
      DomainBox child = box;
      child.*lo = i;
      child.*hi = i + 1;
      out.push_back(child);
    }
    return true;
  };
  if (slice(&DomainBox::s_lo, &DomainBox::s_hi)) return out;
  if (slice(&DomainBox::z_lo, &DomainBox::z_hi)) return out;
  if (slice(&DomainBox::x_lo, &DomainBox::x_hi)) return out;
  if (slice(&DomainBox::y_lo, &DomainBox::y_hi)) return out;
  return out;  // singleton: nothing to split
}

std::uint64_t SearchDomain::count_configs(const DomainBox& box) const {
  CB_CHECK(box.x_hi <= xs_.size() && box.y_hi <= ys_.size() &&
           box.z_hi <= zs_.size() && box.s_hi <= smems_.size());
  if (box.s_lo >= box.s_hi) return 0;
  const std::uint32_t box_mask =
      ((1u << box.s_hi) - 1u) & ~((1u << box.s_lo) - 1u);
  std::uint64_t count = 0;
  for (std::size_t xi = box.x_lo; xi < box.x_hi; ++xi) {
    for (std::size_t yi = box.y_lo; yi < box.y_hi; ++yi) {
      const Cell* row = &cell(xi, yi, 0);
      for (std::size_t zi = box.z_lo; zi < box.z_hi; ++zi)
        count += std::uint64_t{row[zi].splits} *
                 static_cast<std::uint64_t>(
                     std::popcount(row[zi].smem_mask & box_mask));
    }
  }
  return count * kAllLayouts.size();
}

std::vector<ConvConfig> SearchDomain::enumerate_configs(
    const DomainBox& box) const {
  CB_CHECK(box.x_hi <= xs_.size() && box.y_hi <= ys_.size() &&
           box.z_hi <= zs_.size() && box.s_hi <= smems_.size());
  std::vector<ConvConfig> out;
  for (std::size_t xi = box.x_lo; xi < box.x_hi; ++xi) {
    for (std::size_t yi = box.y_lo; yi < box.y_hi; ++yi) {
      for (std::size_t zi = box.z_lo; zi < box.z_hi; ++zi) {
        for (std::size_t si = box.s_lo; si < box.s_hi; ++si) {
          if (!fits(xi, yi, zi, si)) continue;
          for (std::int64_t a : x_splits(xi)) {
            for (std::int64_t b : y_splits(yi)) {
              for (std::int64_t c : z_splits(zi)) {
                if (a * b * c > spec_.max_threads_per_block) continue;
                for (Layout l : kAllLayouts) {
                  ConvConfig cfg;
                  cfg.x = xs_[xi];
                  cfg.y = ys_[yi];
                  cfg.z = zs_[zi];
                  cfg.smem_budget = smems_[si];
                  cfg.nxt = static_cast<int>(a);
                  cfg.nyt = static_cast<int>(b);
                  cfg.nzt = static_cast<int>(c);
                  cfg.layout = l;
                  out.push_back(cfg);
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

bool SearchDomain::contains(const ConvConfig& cfg) const {
  // xs_/ys_/zs_ are ascending, smems_ descending; binary search both ways.
  const std::size_t xi = index_of(xs_, cfg.x);
  const std::size_t yi = index_of(ys_, cfg.y);
  const std::size_t zi = index_of(zs_, cfg.z);
  const auto s_it = std::lower_bound(smems_.begin(), smems_.end(),
                                     cfg.smem_budget, std::greater<>());
  if (xi == kNone || yi == kNone || zi == kNone || s_it == smems_.end() ||
      *s_it != cfg.smem_budget)
    return false;
  if (cfg.x % cfg.nxt != 0 || cfg.y % cfg.nyt != 0 || cfg.z % cfg.nzt != 0)
    return false;
  if (cfg.nxt > kMaxThreadsPerDim || cfg.nyt > kMaxThreadsPerDim ||
      cfg.nzt > kMaxThreadsPerDim)
    return false;
  if (cfg.threads() > spec_.max_threads_per_block) return false;
  return fits(xi, yi, zi, static_cast<std::size_t>(s_it - smems_.begin()));
}

ConvConfig SearchDomain::sample(Rng& rng) const {
  CB_CHECK_MSG(size_ > 0, "empty search domain for " << shape_.to_string());
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const std::size_t xi = rng.below(xs_.size());
    const std::size_t yi = rng.below(ys_.size());
    const std::size_t zi = rng.below(zs_.size());
    const std::size_t si = rng.below(smems_.size());
    const auto tx = x_splits(xi);
    const auto ty = y_splits(yi);
    const auto tz = z_splits(zi);
    ConvConfig cfg;
    cfg.x = xs_[xi];
    cfg.y = ys_[yi];
    cfg.z = zs_[zi];
    cfg.smem_budget = smems_[si];
    cfg.nxt = static_cast<int>(tx[rng.below(tx.size())]);
    cfg.nyt = static_cast<int>(ty[rng.below(ty.size())]);
    cfg.nzt = static_cast<int>(tz[rng.below(tz.size())]);
    cfg.layout = kAllLayouts[rng.below(kAllLayouts.size())];
    if (cfg.threads() <= spec_.max_threads_per_block && fits(xi, yi, zi, si))
      return cfg;
  }
  CB_CHECK_MSG(false, "could not sample a valid configuration");
  return {};
}

std::vector<ConvConfig> SearchDomain::neighbors(const ConvConfig& cfg) const {
  std::vector<ConvConfig> out;
  auto push_if_valid = [&](ConvConfig c) {
    // Re-snap thread splits that no longer divide the tile.
    auto snap = [](std::int64_t tile, int t) {
      while (t > 1 && tile % t != 0) --t;
      return t;
    };
    c.nxt = snap(c.x, c.nxt);
    c.nyt = snap(c.y, c.nyt);
    c.nzt = snap(c.z, c.nzt);
    if (contains(c) && !(c == cfg)) out.push_back(c);
  };

  auto step_list = [&](const std::vector<std::int64_t>& list,
                       std::int64_t cur, auto setter) {
    const auto it = std::find(list.begin(), list.end(), cur);
    if (it == list.end()) return;
    if (it != list.begin()) {
      ConvConfig c = cfg;
      setter(c, *(it - 1));
      push_if_valid(c);
    }
    if (it + 1 != list.end()) {
      ConvConfig c = cfg;
      setter(c, *(it + 1));
      push_if_valid(c);
    }
  };

  step_list(xs_, cfg.x, [](ConvConfig& c, std::int64_t v) { c.x = v; });
  step_list(ys_, cfg.y, [](ConvConfig& c, std::int64_t v) { c.y = v; });
  step_list(zs_, cfg.z, [](ConvConfig& c, std::int64_t v) { c.z = v; });
  step_list(smems_, cfg.smem_budget,
            [](ConvConfig& c, std::int64_t v) { c.smem_budget = v; });

  // Thread-split moves.
  auto thread_moves = [&](int ConvConfig::* field,
                          const std::vector<std::int64_t>& tiles,
                          std::size_t first, std::int64_t tile) {
    const std::size_t ti = index_of(tiles, tile);
    if (ti == kNone) return;
    const auto cand = splits(first + ti);
    const auto it = std::find(cand.begin(), cand.end(),
                              static_cast<std::int64_t>(cfg.*field));
    if (it == cand.end()) return;
    if (it != cand.begin()) {
      ConvConfig c = cfg;
      c.*field = static_cast<int>(*(it - 1));
      push_if_valid(c);
    }
    if (it + 1 != cand.end()) {
      ConvConfig c = cfg;
      c.*field = static_cast<int>(*(it + 1));
      push_if_valid(c);
    }
  };
  thread_moves(&ConvConfig::nxt, xs_, 0, cfg.x);
  thread_moves(&ConvConfig::nyt, ys_, xs_.size(), cfg.y);
  thread_moves(&ConvConfig::nzt, zs_, xs_.size() + ys_.size(), cfg.z);

  // Layout moves.
  for (Layout l : kAllLayouts) {
    if (l == cfg.layout) continue;
    ConvConfig c = cfg;
    c.layout = l;
    push_if_valid(c);
  }
  return out;
}

}  // namespace convbound
