#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <numeric>
#include <string>

#include "convbound/conv/algorithms.hpp"
#include "convbound/ml/gbt.hpp"
#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/domain.hpp"
#include "convbound/tune/engine.hpp"
#include "convbound/tune/features.hpp"
#include "convbound/tune/measure.hpp"
#include "convbound/tune/registry.hpp"
#include "convbound/tune/tuners.hpp"

namespace convbound {
namespace {

ConvShape small_shape() {
  ConvShape s;
  s.cin = 16;
  s.hin = s.win = 18;  // hout = wout = 16 with 3x3 pad 1... set pad below
  s.cout = 16;
  s.kh = s.kw = 3;
  s.stride = 1;
  s.pad = 1;
  s.hin = s.win = 16;
  return s;
}

TEST(Domain, BuildsNonEmpty) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  EXPECT_GT(d.size(), 0u);
  EXPECT_FALSE(d.xs().empty());
  EXPECT_FALSE(d.smem_choices().empty());
}

TEST(Domain, PrunedIsSubsetOfUnpruned) {
  const ConvShape s = small_shape();
  DomainOptions pruned, full;
  pruned.prune_with_optimality = true;
  full.prune_with_optimality = false;
  const auto dp = SearchDomain::build(s, MachineSpec::v100(), pruned);
  const auto df = SearchDomain::build(s, MachineSpec::v100(), full);
  EXPECT_LT(dp.size(), df.size());
  // Every pruned sample must also satisfy the unpruned domain.
  Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(df.contains(dp.sample(rng)));
}

TEST(Domain, PruningRatioInPaperRange) {
  // Table 2 reports ~20-55% for direct convolution; verify the same order
  // of magnitude on an AlexNet-like layer.
  ConvShape s;
  s.cin = 256;
  s.hin = s.win = 13;
  s.cout = 384;
  s.kh = s.kw = 3;
  s.pad = 1;
  const auto dp = SearchDomain::build(
      s, MachineSpec::v100(), {.prune_with_optimality = true});
  const auto df = SearchDomain::build(
      s, MachineSpec::v100(), {.prune_with_optimality = false});
  const double ratio =
      static_cast<double>(dp.size()) / static_cast<double>(df.size());
  EXPECT_GT(ratio, 0.02);
  EXPECT_LT(ratio, 0.8);
}

TEST(Domain, SamplesAreContained) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const ConvConfig c = d.sample(rng);
    EXPECT_TRUE(d.contains(c)) << c.to_string();
    EXPECT_LE(c.threads(), MachineSpec::v100().max_threads_per_block);
    EXPECT_EQ(c.x % c.nxt, 0);
  }
}

TEST(Domain, NeighborsAreContainedAndDiffer) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  Rng rng(9);
  const ConvConfig c = d.sample(rng);
  const auto moves = d.neighbors(c);
  EXPECT_FALSE(moves.empty());
  for (const auto& m : moves) {
    EXPECT_TRUE(d.contains(m)) << m.to_string();
    EXPECT_FALSE(m == c);
  }
}

TEST(Domain, WinogradTilesAreMultiplesOfE) {
  DomainOptions opts;
  opts.winograd = true;
  opts.e = 2;
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100(), opts);
  for (std::int64_t x : d.xs()) EXPECT_EQ(x % 2, 0);
  for (std::int64_t y : d.ys()) EXPECT_EQ(y % 2, 0);
}

TEST(Features, ArityMatchesAndIsFinite) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  Rng rng(3);
  const auto f = config_features(d, d.sample(rng));
  EXPECT_EQ(f.size(), config_feature_arity());
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(Features, DistinguishLayouts) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  Rng rng(3);
  ConvConfig a = d.sample(rng);
  ConvConfig b = a;
  b.layout = a.layout == Layout::kNCHW ? Layout::kNHWC : Layout::kNCHW;
  EXPECT_NE(config_features(d, a), config_features(d, b));
}

TEST(Measurer, MeasuresValidConfig) {
  SimGpu gpu(MachineSpec::v100());
  const auto d = SearchDomain::build(small_shape(), gpu.spec());
  ConvMeasurer m(gpu, d);
  Rng rng(5);
  const Measurement r = m.measure(d.sample(rng));
  EXPECT_TRUE(r.valid);
  EXPECT_GT(r.seconds, 0);
  EXPECT_GT(m.gflops(r.seconds), 0);
  EXPECT_EQ(m.trials(), 1u);
}

TEST(Measurer, InvalidConfigIsInfinite) {
  SimGpu gpu(MachineSpec::v100());
  const auto d = SearchDomain::build(small_shape(), gpu.spec());
  ConvMeasurer m(gpu, d);
  ConvConfig c;
  c.x = 16;
  c.y = 16;
  c.z = 16;
  c.smem_budget = 512;  // way too small
  const Measurement r = m.measure(c);
  EXPECT_FALSE(r.valid);
  EXPECT_TRUE(std::isinf(r.seconds));
}

class TunerSmoke : public ::testing::TestWithParam<int> {};

TEST(Tuners, AllFindValidConfigs) {
  SimGpu gpu(MachineSpec::v100());
  const auto d = SearchDomain::build(small_shape(), gpu.spec());
  std::vector<std::unique_ptr<Tuner>> tuners;
  tuners.push_back(std::make_unique<RandomTuner>(1));
  tuners.push_back(std::make_unique<SimulatedAnnealingTuner>(1));
  tuners.push_back(std::make_unique<GeneticTuner>(1));
  tuners.push_back(std::make_unique<AteTuner>(1));
  for (auto& t : tuners) {
    ConvMeasurer m(gpu, d);
    const TuneResult r = t->run(m, 24);
    EXPECT_EQ(r.history.size(), 24u) << t->name();
    EXPECT_LT(r.best_seconds, 1e30) << t->name();
    EXPECT_TRUE(d.contains(r.best)) << t->name();
    // best_seconds trace is non-increasing.
    for (std::size_t i = 1; i < r.history.size(); ++i)
      EXPECT_LE(r.history[i].best_seconds, r.history[i - 1].best_seconds);
  }
}

TEST(TunerRegistry, CanonicalNamesAndAliases) {
  // Each registry id and its alias build the same strategy, told apart by
  // its display name.
  const std::vector<std::array<const char*, 3>> tuners = {
      {"bnb", "branch-and-bound", "branch-and-bound(bounds)"},
      {"ate", "ate(ours)", "ate(ours)"},
      {"sa", "simulated-annealing", "simulated-annealing"},
      {"ga", "genetic", "genetic"},
      {"random", "random", "random"}};
  for (const auto& [id, alias, name] : tuners) {
    EXPECT_EQ(make_tuner(id)->name(), name);
    EXPECT_EQ(make_tuner(alias)->name(), name);
  }
  EXPECT_THROW(make_tuner("gradient-descent"), Error);
}

TEST(Tuners, AteBeatsOrMatchesRandomOnSameBudget) {
  const MachineSpec spec = MachineSpec::v100();
  ConvShape s;
  s.cin = 32;
  s.hin = s.win = 28;
  s.cout = 64;
  s.kh = s.kw = 3;
  s.pad = 1;
  const auto d = SearchDomain::build(s, spec);
  BatchMeasurer m_ate(spec, d), m_rnd(spec, d);
  AteTuner ate(3);
  RandomTuner rnd(3);
  const TuneResult ra = ate.run(m_ate, 48);
  const TuneResult rr = rnd.run(m_rnd, 48);
  EXPECT_LE(ra.best_seconds, rr.best_seconds * 1.15);
}

TEST(Tuners, ConvergenceTrialWellDefined) {
  SimGpu gpu(MachineSpec::v100());
  const auto d = SearchDomain::build(small_shape(), gpu.spec());
  ConvMeasurer m(gpu, d);
  RandomTuner t(2);
  const TuneResult r = t.run(m, 16);
  const int conv = r.trials_to_converge();
  EXPECT_GE(conv, 1);
  EXPECT_LE(conv, 16);
}

TEST(Engine, AutotunesEndToEnd) {
  SimGpu gpu(MachineSpec::v100());
  AutotuneOptions opts;
  opts.budget = 20;
  const AutotuneOutcome out = autotune_conv(gpu, small_shape(), opts);
  EXPECT_GT(out.best_gflops, 0);
  EXPECT_TRUE(out.domain.contains(out.result.best));
}

TEST(Engine, WinogradDomainTunes) {
  SimGpu gpu(MachineSpec::v100());
  AutotuneOptions opts;
  opts.budget = 16;
  opts.winograd = true;
  const AutotuneOutcome out = autotune_conv(gpu, small_shape(), opts);
  EXPECT_GT(out.best_gflops, 0);
}


ConvShape conv3x3(std::int64_t cin, std::int64_t in, std::int64_t cout) {
  ConvShape s;
  s.cin = cin;
  s.hin = s.win = in;
  s.cout = cout;
  s.kh = s.kw = 3;
  s.pad = 1;
  return s;
}

/// The fields ConvConfig::operator== compares, space-separated in
/// declaration order (layout as its enum value).
std::string config_key(const ConvConfig& c) {
  return std::to_string(c.x) + ' ' + std::to_string(c.y) + ' ' +
         std::to_string(c.z) + ' ' + std::to_string(c.nxt) + ' ' +
         std::to_string(c.nyt) + ' ' + std::to_string(c.nzt) + ' ' +
         std::to_string(static_cast<int>(c.layout)) + ' ' +
         std::to_string(c.smem_budget);
}

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

/// One job of the perfbench `tune` list: a shape, its dataflow and the
/// tuner seed it runs with there.
struct PinJob {
  const char* name;
  ConvShape shape;
  bool winograd;
  std::uint64_t seed;
  std::vector<std::string> expected;  // "x y z nxt nyt nzt layout smem s"
};

/// Runs `tuner` on `j` as perfbench `tune` does (v100, e = 2, budget 32,
/// ate warm-up 8, the analytic default config seeded first) and returns
/// every measured config with its modelled seconds, then, after a "--"
/// line, the tuner's final stats().
std::vector<std::string> pinned_trajectory(const char* tuner,
                                           const PinJob& j) {
  const MachineSpec spec = MachineSpec::v100();
  constexpr std::int64_t kE = 2;
  DomainOptions dopts;
  dopts.winograd = j.winograd;
  dopts.e = kE;
  const auto domain = SearchDomain::build(j.shape, spec, dopts);
  TunerOptions topts;
  topts.seed = j.seed;
  topts.seeds.push_back(j.winograd ? default_winograd_config(j.shape, kE, spec)
                                   : default_tiled_config(j.shape, spec));
  topts.ate.warmup = 8;
  BatchMeasurer m(spec, domain);
  const std::unique_ptr<Tuner> t = make_tuner(tuner, topts);
  const TuneResult r = t->run(m, 32);
  std::vector<std::string> got;
  for (const TuneRecord& rec : r.history)
    got.push_back(config_key(rec.config) + ' ' + fmt("%a", rec.seconds));
  const auto stats = t->stats();
  if (!stats.empty()) got.emplace_back("--");
  for (const auto& [k, v] : stats) got.push_back(k + ' ' + fmt("%.17g", v));
  return got;
}

std::string printed(const std::vector<std::string>& got) {
  std::string out;
  for (const std::string& line : got) out += "\n\"" + line + "\",";
  return out;
}

// The ate search is a pure function of its seeds and of the GBT it fits
// each round: on the three `tune` benchmark shapes (budget 32, warm-up 8,
// tuner seeds 1/3/5, the analytic default config seeded first) every
// proposed config and its modelled seconds are pinned, so a change to the
// cost model's fit that moves any prediction shows here.
TEST(Tuners, AteTrajectoryIsPinned) {
  const std::vector<PinJob> jobs = {
      {"direct_c64_i56", conv3x3(64, 56, 64), false, 1,
       {"15 16 26 8 8 4 0 49152 0x1.77f3dc05682a9p-16",
        "2 1 32 2 1 8 1 49152 0x1.6b2e9acc7497cp-11",
        "4 8 1 2 8 1 0 6144 0x1.00cf3c7782531p-13",
        "2 7 4 1 1 4 2 24576 0x1.ea1f682691fp-11",
        "4 2 1 2 2 1 1 24576 0x1.00cefe5c8b271p-8",
        "7 14 4 1 2 1 1 24576 0x1.82f9f0aecd77dp-11",
        "2 8 16 1 8 8 0 49152 0x1.81585b5979a45p-15",
        "4 8 16 1 2 2 1 24576 0x1.04c2168dc7296p-12",
        "2 8 1 2 8 1 2 6144 0x1.2744a5a19f632p-10",
        "2 4 8 2 1 2 1 12288 0x1.e9ffaa10b1p-12",
        "4 8 8 4 1 2 2 49152 0x1.6714d1201c918p-12",
        "2 4 4 2 1 2 2 49152 0x1.a1e11a20e6aap-10",
        "14 1 8 7 1 2 1 6144 0x1.e025d7417b389p-13",
        "4 7 8 2 7 4 0 24576 0x1.3089c9c9411aap-15",
        "14 2 8 7 2 4 1 24576 0x1.351cd82ee77fap-13",
        "1 14 8 1 2 4 0 3072 0x1.42a4009ff94c2p-14",
        "2 28 4 1 4 2 0 49152 0x1.111c9e40447f1p-13",
        "8 1 16 2 1 16 2 12288 0x1.686c57e7ad6a5p-13",
        "56 2 4 4 2 4 0 6144 0x1.3ab185bb28466p-15",
        "2 7 16 1 1 16 0 12288 0x1.f24dec01e56eap-15",
        "8 8 8 8 4 4 1 6144 0x1.9741ad82aa625p-14",
        "4 56 16 4 7 4 0 49152 0x1.d67f1f2d60246p-16",
        "7 2 4 7 1 4 0 12288 0x1.416efdf9cd0f1p-14",
        "2 7 16 2 7 4 0 12288 0x1.a6646325a7b1bp-15",
        "8 4 8 1 4 4 0 6144 0x1.1a2a8de84f61ap-15",
        "4 7 8 1 7 2 2 3072 0x1.0be1886823e3p-13",
        "4 14 4 2 7 1 2 6144 0x1.a1b07f982ee04p-13",
        "4 7 32 2 7 8 0 49152 0x1.bcb8ee76a8416p-16",
        "14 4 8 2 2 8 0 24576 0x1.f4f77cab6d333p-16",
        "4 14 8 4 2 2 0 3072 0x1.f4f77cab6d333p-16",
        "4 7 16 4 7 2 0 24576 0x1.f381d02a9b92ap-16",
        "7 4 1 7 4 1 0 3072 0x1.0be1886823e3p-13"}},
      {"direct_c128_i28", conv3x3(128, 28, 128), false, 3,
       {"15 16 26 8 8 4 0 49152 0x1.5665ecc3fc4f8p-15",
        "4 14 2 4 14 1 2 12288 0x1.7cc95d5d68f19p-12",
        "7 7 1 1 1 1 0 49152 0x1.f7f7dae8417acp-11",
        "2 7 4 1 7 1 0 6144 0x1.8afabc7590d3ap-14",
        "2 14 2 2 1 2 2 6144 0x1.b4eb86adcdb77p-11",
        "1 4 1 1 4 1 2 24576 0x1.7bc7d5bf68612p-8",
        "14 1 4 2 1 2 1 49152 0x1.ae37ced7fe927p-10",
        "2 28 4 1 7 4 2 12288 0x1.ea5c3c334e0aap-13",
        "14 7 4 14 7 4 1 12288 0x1.4bd8ed0f58559p-13",
        "28 1 4 14 1 1 1 3072 0x1.7686856619efap-12",
        "7 1 4 7 1 1 0 6144 0x1.298a78f99d6bbp-13",
        "4 2 4 2 2 4 0 3072 0x1.c4f47b433aa75p-14",
        "28 4 8 2 2 4 0 24576 0x1.71bdd035ed4dfp-14",
        "7 1 8 7 1 1 0 3072 0x1.12458abf261e6p-13",
        "2 28 8 1 4 2 1 3072 0x1.3049117eace5ap-12",
        "1 28 16 1 2 4 2 24576 0x1.04d849ecc5c72p-12",
        "2 28 32 2 28 4 0 49152 0x1.a412b7180f169p-16",
        "28 4 16 1 2 4 0 12288 0x1.6528967d64dbcp-12",
        "2 4 16 2 2 2 0 49152 0x1.c6cae1f6f6cebp-13",
        "2 7 8 1 7 4 0 3072 0x1.e558c8ce43aafp-15",
        "2 28 4 1 14 4 0 24576 0x1.5928b990ddc9cp-15",
        "28 4 32 4 1 1 0 49152 0x1.6203480f42bf4p-10",
        "4 14 32 4 14 4 0 49152 0x1.a412b7180f169p-16",
        "2 28 32 2 28 4 1 49152 0x1.deb434d77c549p-15",
        "14 7 8 1 7 8 0 49152 0x1.a412b7180f168p-16",
        "2 7 4 2 7 2 0 6144 0x1.38c46c05d4c61p-14",
        "14 4 2 7 4 1 0 49152 0x1.6eb3cda53e513p-14",
        "4 14 1 4 14 1 0 6144 0x1.a7a27b6bee213p-14",
        "4 14 2 1 7 1 1 3072 0x1.e562e23b58b17p-12",
        "2 2 32 2 1 1 2 49152 0x1.11a64391eb19ep-10",
        "7 7 32 1 7 8 0 49152 0x1.8284c7d6a33b8p-15",
        "7 14 8 1 7 8 0 49152 0x1.a412b7180f168p-16"}},
      {"winograd_c256_i14", conv3x3(256, 14, 256), true, 5,
       {"10 10 13 8 8 4 0 49152 0x1.5881a901c5b3p-16",
        "14 14 1 7 7 1 2 24576 0x1.e613480b40c8p-12",
        "2 2 2 2 1 2 1 6144 0x1.582f1fe24a8eap-10",
        "2 2 1 1 1 1 2 3072 0x1.3f4dd7d834184p-8",
        "2 14 8 1 14 2 1 24576 0x1.5642bf2d5cf4cp-13",
        "14 2 16 7 2 8 1 49152 0x1.3d0628ffec0cep-14",
        "2 14 1 2 1 1 0 3072 0x1.3c80c99fb5e63p-12",
        "14 2 1 2 2 1 2 12288 0x1.d76d6329f3d12p-10",
        "14 2 16 14 1 2 1 12288 0x1.17a9fc5fecad4p-13",
        "14 14 2 14 7 2 0 24576 0x1.28dd53d3e8138p-15",
        "14 14 2 2 14 2 1 24576 0x1.25f4abb851446p-12",
        "14 2 2 14 2 2 0 3072 0x1.3d0628ffec0cep-14",
        "14 2 4 1 1 4 0 3072 0x1.d4c0231827c36p-14",
        "2 2 8 1 2 8 1 6144 0x1.599508ce47701p-12",
        "2 14 16 1 2 1 0 49152 0x1.1600f007d7072p-11",
        "2 2 2 2 2 2 1 12288 0x1.582f1fe24a8eap-10",
        "2 14 2 2 1 2 0 3072 0x1.0624bcf5c01bbp-13",
        "14 14 8 14 14 4 0 49152 0x1.f4ec256d2085dp-16",
        "14 2 8 7 2 1 0 24576 0x1.01fdcbb1a172dp-14",
        "14 14 1 7 7 1 0 24576 0x1.0c282943c1d8p-14",
        "14 2 8 7 2 2 0 49152 0x1.01fdcbb1a172dp-14",
        "14 14 8 7 1 8 0 49152 0x1.08abb26fbaf68p-14",
        "14 2 4 7 1 4 0 24576 0x1.025dfb67404dep-14",
        "2 14 4 2 7 4 0 6144 0x1.9bb3d3347e762p-15",
        "14 2 4 2 2 2 1 6144 0x1.9cf24468f163ap-12",
        "14 2 1 7 2 1 0 49152 0x1.255606e924e5ep-12",
        "2 14 8 2 7 4 0 12288 0x1.2c8793ced1a44p-15",
        "14 2 8 7 2 8 0 12288 0x1.2c8793ced1a44p-15",
        "14 14 2 7 14 2 2 24576 0x1.ed4092af4a56ep-13",
        "2 2 8 2 1 4 0 3072 0x1.a323e59204f22p-13",
        "2 14 8 2 7 8 0 12288 0x1.2c8793ced1a44p-15",
        "14 2 16 14 2 8 0 49152 0x1.e9e2e837f676ap-16"}},
  };
  for (const PinJob& j : jobs) {
    const std::vector<std::string> got = pinned_trajectory("ate", j);
    EXPECT_EQ(got, j.expected) << j.name << ":" << printed(got);
  }
}

// bnb is deterministic (no RNG): on the same three shapes, with the same
// seed config and budget, every measured config, its modelled seconds and
// the final pruning counters are pinned, so a change to the domain's
// feasibility table, the subtree bound or the pop order shows here.
TEST(Tuners, BnbTrajectoryIsPinned) {
  const std::vector<PinJob> jobs = {
      {"direct_c64_i56", conv3x3(64, 56, 64), false, 2,
       {"15 16 26 8 8 4 0 49152 0x1.77f3dc05682a9p-16",
        "2 56 8 1 14 8 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 1 14 8 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 1 14 8 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 1 28 4 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 1 28 4 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 1 28 4 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 1 28 8 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 1 28 8 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 1 28 8 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 7 8 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 2 7 8 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 7 8 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 8 8 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 2 8 8 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 8 8 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 14 4 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 2 14 4 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 14 4 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 14 8 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 2 14 8 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 14 8 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 28 2 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 2 28 2 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 28 2 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 28 4 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 2 28 4 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 28 4 2 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 28 8 0 49152 0x1.8a36acbcc56e6p-16",
        "2 56 8 2 28 8 1 49152 0x1.fe1b50f3e4d0cp-14",
        "2 56 8 2 28 8 2 49152 0x1.fe1b50f3e4d0cp-14",
        "4 28 8 1 14 8 0 49152 0x1.549cc5072d893p-16",
        "--",
        "nodes_expanded 5",
        "subtrees_pruned 5",
        "leaves_opened 2",
        "configs_pruned 432",
        "frontier_open 24",
        "pool_pending 353",
        "proven_optimal 0"}},
      {"direct_c128_i28", conv3x3(128, 28, 128), false, 4,
       {"15 16 26 8 8 4 0 49152 0x1.5665ecc3fc4f8p-15",
        "4 28 8 1 14 8 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 1 14 8 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 1 14 8 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 1 28 4 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 1 28 4 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 1 28 4 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 1 28 8 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 1 28 8 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 1 28 8 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 7 8 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 2 7 8 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 7 8 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 14 4 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 2 14 4 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 14 4 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 14 8 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 2 14 8 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 14 8 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 28 2 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 2 28 2 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 28 2 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 28 4 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 2 28 4 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 28 4 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 28 8 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 2 28 8 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 2 28 8 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 4 4 8 0 49152 0x1.4297b520312c2p-16",
        "4 28 8 4 4 8 1 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 4 4 8 2 49152 0x1.7bf5aba88ececp-14",
        "4 28 8 4 7 4 0 49152 0x1.4297b520312c2p-16",
        "--",
        "nodes_expanded 4",
        "subtrees_pruned 0",
        "leaves_opened 1",
        "configs_pruned 0",
        "frontier_open 19",
        "pool_pending 185",
        "proven_optimal 0"}},
      {"winograd_c256_i14", conv3x3(256, 14, 256), true, 6,
       {"10 10 13 8 8 4 0 49152 0x1.5881a901c5b3p-16",
        "14 14 4 7 7 4 0 49152 0x1.aa129b908bbf7p-16",
        "14 14 4 7 7 4 1 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 7 7 4 2 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 7 14 2 0 49152 0x1.aa129b908bbf7p-16",
        "14 14 4 7 14 2 1 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 7 14 2 2 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 7 14 4 0 49152 0x1.aa129b908bbf7p-16",
        "14 14 4 7 14 4 1 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 7 14 4 2 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 14 7 2 0 49152 0x1.aa129b908bbf7p-16",
        "14 14 4 14 7 2 1 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 14 7 2 2 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 14 7 4 0 49152 0x1.aa129b908bbf7p-16",
        "14 14 4 14 7 4 1 49152 0x1.3b281a0683ab3p-13",
        "14 14 4 14 7 4 2 49152 0x1.3b281a0683ab3p-13",
        "14 14 8 2 14 8 0 49152 0x1.f4ec256d2085dp-16",
        "14 14 8 2 14 8 1 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 2 14 8 2 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 7 4 0 49152 0x1.f4ec256d2085dp-16",
        "14 14 8 7 7 4 1 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 7 4 2 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 7 8 0 49152 0x1.f4ec256d2085dp-16",
        "14 14 8 7 7 8 1 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 7 8 2 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 14 2 0 49152 0x1.f4ec256d2085dp-16",
        "14 14 8 7 14 2 1 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 14 2 2 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 14 4 0 49152 0x1.f4ec256d2085dp-16",
        "14 14 8 7 14 4 1 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 14 4 2 49152 0x1.429cf9dc29dbep-13",
        "14 14 8 7 14 8 0 49152 0x1.f4ec256d2085dp-16",
        "--",
        "nodes_expanded 24",
        "subtrees_pruned 30",
        "leaves_opened 2",
        "configs_pruned 4260",
        "frontier_open 3",
        "pool_pending 278",
        "proven_optimal 0"}},
  };
  for (const PinJob& j : jobs) {
    const std::vector<std::string> got = pinned_trajectory("bnb", j);
    EXPECT_EQ(got, j.expected) << j.name << ":" << printed(got);
  }
}

/// Spearman rank correlation between two equally sized vectors.
double rank_correlation(std::vector<double> a, std::vector<double> b) {
  auto ranks = [](std::vector<double> v) {
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
      r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto ra = ranks(std::move(a)), rb = ranks(std::move(b));
  const double n = static_cast<double>(ra.size());
  double d2 = 0;
  for (std::size_t i = 0; i < ra.size(); ++i)
    d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

TEST(CostModel, GbtRanksRealMeasurements) {
  // The engine's premise: a GBT trained on measured runtimes must rank
  // unseen configurations usefully (TVM reports the same property for
  // XGBoost). Train on 48 measured configs, evaluate rank correlation on
  // 24 held-out ones. The counted runtimes equal the executed ones bit for
  // bit (tune_parallel_test), so nothing is executed here.
  const MachineSpec spec = MachineSpec::v100();
  ConvShape s;
  s.cin = 32;
  s.hin = s.win = 28;
  s.cout = 64;
  s.kh = s.kw = 3;
  s.pad = 1;
  const auto domain = SearchDomain::build(s, spec);
  BatchMeasurer m(spec, domain);
  Rng rng(3);

  std::vector<std::vector<double>> X;
  std::vector<double> y;
  for (int i = 0; i < 48; ++i) {
    const ConvConfig cfg = domain.sample(rng);
    const Measurement meas = m.measure(cfg);
    if (!meas.valid) continue;
    X.push_back(config_features(domain, cfg));
    y.push_back(std::log(meas.seconds));
  }
  ASSERT_GE(X.size(), 32u);
  Gbt model;
  model.fit(X, y);

  std::vector<double> predicted, actual;
  for (int i = 0; i < 24; ++i) {
    const ConvConfig cfg = domain.sample(rng);
    const Measurement meas = m.measure(cfg);
    if (!meas.valid) continue;
    predicted.push_back(model.predict(config_features(domain, cfg)));
    actual.push_back(std::log(meas.seconds));
  }
  ASSERT_GE(predicted.size(), 16u);
  EXPECT_GT(rank_correlation(predicted, actual), 0.5);
}

}  // namespace
}  // namespace convbound
