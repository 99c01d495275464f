// Property-based tests: randomised problem shapes and configurations are
// checked against the reference oracle and the theory's invariants. Seeds
// are fixed, so failures replay deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/conv/algorithms.hpp"
#include "convbound/conv/reference.hpp"
#include "convbound/gemm/gemm.hpp"
#include "convbound/machine/machine_spec.hpp"
#include "convbound/pebble/game.hpp"
#include "convbound/pebble/generators.hpp"
#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/bnb.hpp"
#include "convbound/tune/domain.hpp"

namespace convbound {
namespace {

ConvShape random_shape(Rng& rng, bool stride_one = false) {
  ConvShape s;
  s.batch = rng.range(1, 2);
  s.cin = rng.range(1, 12);
  s.cout = rng.range(1, 12);
  s.kh = s.kw = rng.range(1, 5);
  s.stride = stride_one ? 1 : rng.range(1, 3);
  s.pad = rng.range(0, s.kh - 1);
  // Input large enough for at least one output.
  const std::int64_t min_in = s.kh + s.stride * 2 - 2 * s.pad;
  s.hin = s.win = std::max<std::int64_t>(min_in, rng.range(5, 18));
  s.validate();
  return s;
}

ConvConfig random_config(Rng& rng, const ConvShape& s) {
  ConvConfig c;
  c.x = rng.range(1, std::min<std::int64_t>(12, s.hout()));
  c.y = rng.range(1, std::min<std::int64_t>(12, s.wout()));
  c.z = rng.range(1, s.cout);
  c.nxt = 1 + static_cast<int>(rng.below(3));
  c.nyt = 1 + static_cast<int>(rng.below(3));
  c.nzt = 1;
  c.layout = kAllLayouts[rng.below(kAllLayouts.size())];
  return c;
}

class DirectTiledFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DirectTiledFuzz, RandomShapeAndTileMatchReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const ConvShape s = random_shape(rng);
  const ConvConfig cfg = random_config(rng, s);
  const ConvProblem p = make_problem(s, rng(), cfg.layout);
  const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const auto stats = direct_tiled_sim(gpu, p.input, p.weights, s, cfg, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3))
      << s.to_string() << " " << cfg.to_string();
  // Invariants: outputs stored exactly once; flops match the shape.
  EXPECT_EQ(stats.bytes_stored,
            static_cast<std::uint64_t>(s.output_elems() * 4));
  EXPECT_EQ(stats.flops, static_cast<std::uint64_t>(s.flops()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectTiledFuzz, ::testing::Range(0, 24));

class GroupedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GroupedFuzz, RandomGroupedShapesMatchReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  ConvShape s = random_shape(rng);
  // Pick a group count dividing both channel counts.
  const std::int64_t g = rng.range(1, 4);
  s.cin = s.cin * g;
  s.cout = s.cout * g;
  s.groups = g;
  s.validate();
  const ConvConfig cfg = random_config(rng, s);
  const ConvProblem p = make_problem(s, rng(), cfg.layout);
  const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  direct_tiled_sim(gpu, p.input, p.weights, s, cfg, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3))
      << s.to_string() << " " << cfg.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedFuzz, ::testing::Range(0, 12));

class WinogradFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WinogradFuzz, RandomStrideOneShapesMatchReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  ConvShape s = random_shape(rng, /*stride_one=*/true);
  s.kh = s.kw = rng.range(2, 3);  // r in {2, 3}
  s.pad = rng.range(0, s.kh - 1);
  s.validate();
  const std::int64_t e = rng.range(2, 4);
  const ConvConfig cfg = random_config(rng, s);
  const ConvProblem p = make_problem(s, rng(), cfg.layout);
  const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  winograd_fused_sim(gpu, p.input, p.weights, s, e, cfg, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3))
      << s.to_string() << " e=" << e << " " << cfg.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WinogradFuzz, ::testing::Range(0, 16));

/// Random layered DAGs: pebble-game invariants must hold regardless of
/// structure.
class PebbleFuzz : public ::testing::TestWithParam<int> {};

Dag random_layered_dag(Rng& rng) {
  DagBuilder b;
  const int layers = static_cast<int>(rng.range(2, 5));
  std::vector<VertexId> prev;
  const int n_inputs = static_cast<int>(rng.range(3, 24));
  for (int i = 0; i < n_inputs; ++i) prev.push_back(b.add_input());
  for (int l = 0; l < layers; ++l) {
    std::vector<VertexId> cur;
    const int width = static_cast<int>(rng.range(2, 20));
    for (int i = 0; i < width; ++i) {
      const VertexId p1 = prev[rng.below(prev.size())];
      const VertexId p2 = prev[rng.below(prev.size())];
      cur.push_back(p1 == p2 ? b.add_vertex({p1})
                             : b.add_vertex({p1, p2}));
    }
    prev = std::move(cur);
  }
  for (VertexId v : prev) b.mark_output(v);
  return b.build();
}

TEST_P(PebbleFuzz, GameInvariantsOnRandomDags) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 11);
  const Dag dag = random_layered_dag(rng);
  const std::size_t s_small = dag.max_in_degree + 1 + rng.below(4);
  const std::size_t s_large = dag.num_vertices() + 4;

  for (EvictionPolicy policy :
       {EvictionPolicy::kBelady, EvictionPolicy::kLru}) {
    const GameResult small = play_pebble_game(dag, s_small, policy);
    const GameResult large = play_pebble_game(dag, s_large, policy);
    // Cold traffic floors every run; infinite memory achieves it exactly.
    EXPECT_GE(small.total(), cold_traffic(dag));
    EXPECT_EQ(large.total(), cold_traffic(dag));
    EXPECT_LE(large.total(), small.total());
    // Every output must be written at least once.
    EXPECT_GE(small.stores, dag.num_outputs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PebbleFuzz, ::testing::Range(0, 16));

/// Domain properties under random shapes.
class DomainFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DomainFuzz, SamplesNeighborsAndPruningInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
  ConvShape s = random_shape(rng);
  s.cout = std::max<std::int64_t>(2, s.cout);
  s.validate();
  const MachineSpec spec = MachineSpec::gtx1080ti();
  const auto pruned =
      SearchDomain::build(s, spec, {.prune_with_optimality = true});
  const auto full =
      SearchDomain::build(s, spec, {.prune_with_optimality = false});
  EXPECT_LE(pruned.size(), full.size());
  if (pruned.size() == 0) return;  // tiny shapes can prune to nothing

  for (int i = 0; i < 8; ++i) {
    const ConvConfig c = pruned.sample(rng);
    EXPECT_TRUE(pruned.contains(c));
    EXPECT_TRUE(full.contains(c));  // pruned subset of full
    for (const auto& n : pruned.neighbors(c)) {
      EXPECT_TRUE(pruned.contains(n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomainFuzz, ::testing::Range(0, 10));

/// The domain's feasibility table against the constraint it tabulates,
/// evaluated point by point: the S_b budget holds the tile's footprint
/// and, when pruning, z <= sqrt(S_b/R) and x*y <= sqrt(S_b*R) (S_b in
/// elements, Section 6.2).
bool tile_fits(const SearchDomain& d, std::int64_t x, std::int64_t y,
               std::int64_t z, std::int64_t smem) {
  ConvConfig t;
  t.x = x;
  t.y = y;
  t.z = z;
  const std::int64_t fp =
      d.options().winograd
          ? winograd_fused_smem_bytes(d.shape(), d.options().e, t)
          : direct_tiled_smem_bytes(d.shape(), t);
  if (fp > smem) return false;
  if (!d.options().prune_with_optimality) return true;
  const double sb =
      static_cast<double>(smem) / static_cast<double>(sizeof(float));
  const double R = std::max(1.0, d.shape().reuse());
  if (static_cast<double>(z) > std::sqrt(sb / R) + 1e-9) return false;
  if (static_cast<double>(x * y) > std::sqrt(sb * R) + 1e-9) return false;
  return true;
}

bool in_list(const std::vector<std::int64_t>& list, std::int64_t v) {
  return std::find(list.begin(), list.end(), v) != list.end();
}

/// Brute-force membership: every domain constraint, checked directly.
bool brute_contains(const SearchDomain& d, const ConvConfig& c) {
  for (int t : {c.nxt, c.nyt, c.nzt})
    if (t < 1 || t > 32) return false;
  return in_list(d.xs(), c.x) && in_list(d.ys(), c.y) &&
         in_list(d.zs(), c.z) && in_list(d.smem_choices(), c.smem_budget) &&
         c.x % c.nxt == 0 && c.y % c.nyt == 0 && c.z % c.nzt == 0 &&
         c.threads() <= d.spec().max_threads_per_block &&
         tile_fits(d, c.x, c.y, c.z, c.smem_budget);
}

/// Divisors of `tile` up to the per-dimension thread limit.
std::vector<std::int64_t> splits(std::int64_t tile) {
  std::vector<std::int64_t> out;
  for (std::int64_t t = 1; t <= std::min<std::int64_t>(tile, 32); ++t)
    if (tile % t == 0) out.push_back(t);
  return out;
}

/// Brute-force count: every lattice point of `box`, every thread split.
std::uint64_t brute_count(const SearchDomain& d, const DomainBox& box) {
  std::uint64_t count = 0;
  for (std::size_t xi = box.x_lo; xi < box.x_hi; ++xi)
    for (std::size_t yi = box.y_lo; yi < box.y_hi; ++yi)
      for (std::size_t zi = box.z_lo; zi < box.z_hi; ++zi)
        for (std::size_t si = box.s_lo; si < box.s_hi; ++si) {
          if (!tile_fits(d, d.xs()[xi], d.ys()[yi], d.zs()[zi],
                         d.smem_choices()[si]))
            continue;
          for (std::int64_t a : splits(d.xs()[xi]))
            for (std::int64_t b : splits(d.ys()[yi]))
              for (std::int64_t c : splits(d.zs()[zi]))
                if (a * b * c <= d.spec().max_threads_per_block)
                  count += kAllLayouts.size();
        }
  return count;
}

class DomainTableFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DomainTableFuzz, CountsAndMembershipMatchBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  for (const char* preset :
       {"1080ti", "titanx", "v100", "gfx906", "hbm", "dense", "test"}) {
    const MachineSpec spec = spec_by_name(preset);
    // Direct: strided, odd-sized, any kernel. Winograd: 3x3 stride 1.
    for (const std::int64_t e : {std::int64_t{0}, std::int64_t{2},
                                 std::int64_t{4}}) {
      ConvShape s;
      s.batch = rng.range(1, 2);
      s.cin = rng.range(1, 64);
      s.cout = rng.range(1, 96);
      s.kh = s.kw = e == 0 ? rng.range(1, 5) : 3;
      s.stride = e == 0 ? rng.range(1, 3) : 1;
      s.pad = rng.range(0, s.kh - 1);
      s.hin = s.win = std::max<std::int64_t>(s.kh + s.stride, rng.range(5, 40));
      s.validate();
      for (const bool prune : {true, false}) {
        DomainOptions opts;
        opts.prune_with_optimality = prune;
        opts.winograd = e != 0;
        opts.e = e == 0 ? 2 : e;
        const auto d = SearchDomain::build(s, spec, opts);
        const std::string what = std::string(preset) + " e=" +
                                 std::to_string(e) + " prune=" +
                                 std::to_string(prune) + " " + s.to_string();
        ASSERT_EQ(d.size(), brute_count(d, d.full_box())) << what;
        if (d.smem_choices().empty()) continue;
        auto pick = [&](std::size_t n, std::size_t& lo, std::size_t& hi) {
          lo = rng.below(n);
          hi = lo + 1 + rng.below(n - lo);
        };
        for (int b = 0; b < 12; ++b) {
          DomainBox box;
          pick(d.xs().size(), box.x_lo, box.x_hi);
          pick(d.ys().size(), box.y_lo, box.y_hi);
          pick(d.zs().size(), box.z_lo, box.z_hi);
          pick(d.smem_choices().size(), box.s_lo, box.s_hi);
          ASSERT_EQ(d.count_configs(box), brute_count(d, box)) << what;
        }
        // Configurations on the lattice, mostly with dividing thread
        // splits, and some just off it.
        auto any = [&](const std::vector<std::int64_t>& list) {
          return rng.below(8) == 0 ? rng.range(1, 64)
                                   : list[rng.below(list.size())];
        };
        auto split_of = [&](std::int64_t tile) {
          const auto t = splits(tile);
          return static_cast<int>(rng.below(4) == 0 || t.empty()
                                      ? rng.range(1, 33)
                                      : t[rng.below(t.size())]);
        };
        for (int i = 0; i < 60; ++i) {
          ConvConfig c;
          c.x = any(d.xs());
          c.y = any(d.ys());
          c.z = any(d.zs());
          c.smem_budget = rng.below(8) == 0 ? rng.range(1, 65536)
                                            : any(d.smem_choices());
          c.nxt = split_of(c.x);
          c.nyt = split_of(c.y);
          c.nzt = split_of(c.z);
          c.layout = kAllLayouts[rng.below(kAllLayouts.size())];
          ASSERT_EQ(d.contains(c), brute_contains(d, c))
              << what << " " << c.to_string();
        }
        if (d.size() == 0) continue;
        for (int i = 0; i < 20; ++i) {
          const ConvConfig c = d.sample(rng);
          ASSERT_TRUE(brute_contains(d, c)) << what << " " << c.to_string();
          ASSERT_TRUE(d.contains(c)) << what << " " << c.to_string();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomainTableFuzz, ::testing::Range(0, 8));

/// Bound properties under random shapes: positivity, monotone decrease in
/// S, and validity against an executed kernel.
class BoundFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BoundFuzz, BoundsPositiveMonotoneAndRespected) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 9);
  const ConvShape s = random_shape(rng);
  double prev = 1e300;
  for (double S : {512.0, 2048.0, 8192.0}) {
    const double q = direct_conv_lower_bound_leading(s, S);
    EXPECT_GT(q, 0) << s.to_string();
    EXPECT_LT(q, prev);
    prev = q;
  }
  SimGpu gpu(MachineSpec::v100());
  const ConvProblem p = make_problem(s, rng());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const auto stats = direct_tiled_sim(gpu, p.input, p.weights, s,
                                      default_tiled_config(s, gpu.spec()),
                                      out);
  EXPECT_GE(static_cast<double>(stats.bytes_total()) / 4.0,
            direct_conv_lower_bound(
                s, static_cast<double>(gpu.spec().smem_floats())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundFuzz, ::testing::Range(0, 12));

/// The counting measurer against the executing one: every LaunchStats field
/// and the validity agree, in and out of the domain, and the
/// branch-and-bound bound of each sampled configuration's singleton box
/// never exceeds its counted runtime.
struct CountCase {
  ConvShape shape;
  std::int64_t e = 0;  // Winograd F(e, r); 0 = direct tiled
};

ConvShape make_shape(std::int64_t batch, std::int64_t cin, std::int64_t in,
                     std::int64_t cout, std::int64_t k, std::int64_t stride,
                     std::int64_t pad, std::int64_t groups = 1) {
  ConvShape s;
  s.batch = batch;
  s.cin = cin;
  s.hin = s.win = in;
  s.cout = cout;
  s.kh = s.kw = k;
  s.stride = stride;
  s.pad = pad;
  s.groups = groups;
  s.validate();
  return s;
}

CountCase count_case(int i) {
  const std::vector<std::pair<ConvShape, std::int64_t>> cases = {
      {make_shape(1, 32, 14, 32, 3, 1, 1, 32), 0},  // depthwise
      {make_shape(1, 12, 13, 24, 5, 2, 2, 3), 0},   // grouped 5x5
      {make_shape(1, 3, 227, 96, 11, 4, 0), 0},     // AlexNet conv1
      {make_shape(1, 32, 28, 32, 1, 1, 0), 0},      // 1x1
      {make_shape(1, 32, 28, 32, 1, 2, 0), 0},      // 1x1 s2: kernel < stride
      {make_shape(2, 8, 15, 16, 3, 2, 1), 0},       // batch 2
      {make_shape(1, 16, 14, 16, 3, 1, 1), 2},      // F(2,3)
      {make_shape(1, 16, 14, 16, 3, 1, 1), 3},      // F(3,3)
      {make_shape(1, 16, 14, 16, 3, 1, 1), 4},      // F(4,3)
      {make_shape(1, 8, 13, 8, 5, 1, 2), 2},        // F(2,5)
  };
  return {cases[static_cast<std::size_t>(i)].first,
          cases[static_cast<std::size_t>(i)].second};
}

/// The singleton box holding `c`'s (x, y, z, S_b) lattice point.
DomainBox singleton_box(const SearchDomain& d, const ConvConfig& c) {
  auto index = [](const std::vector<std::int64_t>& v, std::int64_t value) {
    return static_cast<std::size_t>(
        std::find(v.begin(), v.end(), value) - v.begin());
  };
  DomainBox b;
  b.x_lo = index(d.xs(), c.x);
  b.y_lo = index(d.ys(), c.y);
  b.z_lo = index(d.zs(), c.z);
  b.s_lo = index(d.smem_choices(), c.smem_budget);
  b.x_hi = b.x_lo + 1;
  b.y_hi = b.y_lo + 1;
  b.z_hi = b.z_lo + 1;
  b.s_hi = b.s_lo + 1;
  return b;
}

/// Configurations outside the domain: an S_b below the tile's footprint,
/// an S_b above S_sm, more threads than a block may have, and a tile far
/// larger than the output (clamped by the kernel).
std::vector<ConvConfig> out_of_domain(const ConvConfig& c,
                                      const MachineSpec& spec) {
  ConvConfig tiny = c;
  tiny.smem_budget = sizeof(float);
  ConvConfig huge = c;
  huge.smem_budget = spec.shared_mem_per_sm + 4;
  ConvConfig threads = c;
  threads.nxt = spec.max_threads_per_block;
  threads.nyt = 2;
  ConvConfig wide = c;
  wide.x *= 64;
  wide.y *= 64;
  wide.z *= 64;
  wide.smem_budget = 0;
  return {tiny, huge, threads, wide};
}

/// Every LaunchStats field of a count equals the executed launch's.
void expect_same_stats(const LaunchStats& count, const LaunchStats& run) {
  EXPECT_EQ(count.bytes_loaded, run.bytes_loaded);
  EXPECT_EQ(count.bytes_stored, run.bytes_stored);
  EXPECT_EQ(count.flops, run.flops);
  EXPECT_EQ(count.num_blocks, run.num_blocks);
  EXPECT_EQ(count.num_launches, run.num_launches);
  EXPECT_EQ(count.sim_time, run.sim_time);
}

class CountFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CountFuzz, CountEqualsExecutionInEveryField) {
  const CountCase cc = count_case(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 17);
  SimGpu gpu(MachineSpec::v100());
  for (bool prune : {true, false}) {
    DomainOptions opts;
    opts.prune_with_optimality = prune;
    opts.winograd = cc.e > 0;
    opts.e = cc.e > 0 ? cc.e : 2;
    const auto domain = SearchDomain::build(cc.shape, gpu.spec(), opts);
    ASSERT_GT(domain.size(), 0u) << cc.shape.to_string();
    ConvMeasurer executed(gpu, domain, rng());
    BatchMeasurer counted(gpu.spec(), domain);

    std::vector<ConvConfig> cfgs;
    for (int i = 0; i < 6; ++i) cfgs.push_back(domain.sample(rng));
    const std::size_t sampled = cfgs.size();
    for (const ConvConfig& c : out_of_domain(cfgs.front(), gpu.spec()))
      cfgs.push_back(c);

    const std::vector<Measurement> counts = counted.measure_batch(cfgs);
    int invalid = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      SCOPED_TRACE(cc.shape.to_string() + " e=" + std::to_string(cc.e) +
                   (prune ? " pruned " : " full ") + cfgs[i].to_string());
      const Measurement run = executed.measure(cfgs[i]);
      const Measurement& count = counts[i];
      EXPECT_EQ(count.valid, run.valid);
      EXPECT_EQ(count.seconds, run.seconds);
      expect_same_stats(count.stats, run.stats);
      invalid += run.valid ? 0 : 1;
      if (i < sampled && count.valid) {
        EXPECT_LE(subtree_lower_seconds(domain, singleton_box(domain, cfgs[i])),
                  count.seconds);
      }
    }
    // The S_b overflow, S_b above S_sm and thread-limit variants never run.
    EXPECT_GE(invalid, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CountFuzz, ::testing::Range(0, 10));

/// The baseline kernels' counts against execution: gemm_count, im2col_count
/// and winograd_phased_count return every LaunchStats field their launches
/// count, on every input layout, and throw exactly where the launches throw.
struct BaselineCase {
  ConvShape shape;
  std::int64_t e = 0;  // phased Winograd F(e, r); 0 = im2col + GEMM
};

BaselineCase baseline_case(int i) {
  const std::vector<BaselineCase> cases = {
      {make_shape(2, 5, 13, 7, 3, 1, 1), 0},    // batch 2
      {make_shape(1, 6, 15, 9, 3, 2, 1), 0},    // stride 2
      {make_shape(1, 70, 9, 66, 1, 1, 0), 0},   // 1x1: GEMM edge tiles in m, k, n
      {make_shape(1, 4, 17, 5, 1, 2, 0), 0},    // 1x1 stride 2
      {make_shape(1, 6, 13, 5, 3, 1, 1), 2},    // F(2,3): edge tiles, 49 tiles
      {make_shape(2, 4, 18, 6, 3, 1, 1), 4},    // F(4,3), batch 2: 25 tiles
      {make_shape(1, 3, 13, 4, 5, 1, 2), 2},    // F(2,5)
      {make_shape(1, 2, 21, 70, 3, 1, 1), 2},   // 121 tiles: a partial chunk
  };
  return cases[static_cast<std::size_t>(i)];
}

class BaselineCountFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BaselineCountFuzz, CountEqualsExecutionInEveryField) {
  const BaselineCase bc = baseline_case(GetParam());
  const ConvShape& s = bc.shape;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  SimGpu gpu(MachineSpec::v100());
  for (Layout layout : kAllLayouts) {
    SCOPED_TRACE(s.to_string() + " e=" + std::to_string(bc.e) + " " +
                 to_string(layout));
    const ConvProblem p = make_problem(s, rng(), layout);
    Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
    if (bc.e == 0) {
      expect_same_stats(im2col_count(gpu.spec(), s, layout),
                        im2col_sim(gpu, p.input, p.weights, s, out));
    } else {
      expect_same_stats(
          winograd_phased_count(gpu.spec(), s, bc.e, layout),
          winograd_phased_sim(gpu, p.input, p.weights, s, bc.e, out));
    }
  }

  // The GEMM on its own: random sizes around the 64x64x32 default tile and
  // a small custom tiling.
  const std::int64_t m = rng.range(1, 140), k = rng.range(1, 100);
  const std::int64_t n = rng.range(1, 140);
  std::vector<float> a(static_cast<std::size_t>(m * k), 1.0f);
  std::vector<float> b(static_cast<std::size_t>(k * n), 1.0f);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (const GemmConfig& cfg : {GemmConfig{}, GemmConfig{16, 24, 8, 64}}) {
    SCOPED_TRACE("gemm " + std::to_string(m) + "x" + std::to_string(k) + "x" +
                 std::to_string(n) + " tile_m=" + std::to_string(cfg.tile_m));
    expect_same_stats(
        gemm_count(gpu.spec(), m, k, n, cfg),
        gemm_sim(gpu, a.data(), b.data(), c.data(), m, k, n, cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BaselineCountFuzz, ::testing::Range(0, 8));

// Where a launch cannot run, the count throws too: an im2col block staging
// kh rows of a 6200-wide input exceeds S_sm, and on the 4 KiB test machine
// the phased input transform's 64-tile chunk and a full GEMM tile overflow.
TEST(BaselineCountFuzz, CountThrowsWhereTheLaunchThrows) {
  SimGpu v100(MachineSpec::v100());
  ConvShape wide = make_shape(1, 1, 3, 2, 3, 1, 1);
  wide.win = 6200;
  wide.validate();
  ASSERT_GT((wide.kh * (wide.wout() + wide.kw - 1) + wide.wout()) *
                static_cast<std::int64_t>(sizeof(float)),
            v100.spec().shared_mem_per_sm);
  const ConvProblem pw = make_problem(wide, 5);
  Tensor4<float> out_w(1, wide.cout, wide.hout(), wide.wout());
  EXPECT_THROW(im2col_count(v100.spec(), wide, Layout::kNCHW), Error);
  EXPECT_THROW(im2col_sim(v100, pw.input, pw.weights, wide, out_w), Error);

  SimGpu small(MachineSpec::test_machine());
  const ConvShape s = make_shape(1, 2, 9, 2, 3, 1, 1);
  const ConvProblem p = make_problem(s, 6);
  Tensor4<float> out(1, s.cout, s.hout(), s.wout());
  EXPECT_THROW(winograd_phased_count(small.spec(), s, 2, Layout::kNCHW),
               Error);
  EXPECT_THROW(winograd_phased_sim(small, p.input, p.weights, s, 2, out),
               Error);

  std::vector<float> a(64 * 64, 1.0f), b(64 * 64, 1.0f), c(64 * 64);
  EXPECT_THROW(gemm_count(small.spec(), 64, 64, 64), Error);
  EXPECT_THROW(gemm_sim(small, a.data(), b.data(), c.data(), 64, 64, 64),
               Error);
}

}  // namespace
}  // namespace convbound
