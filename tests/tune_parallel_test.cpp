// The counting measurer's contract: BatchMeasurer counts exactly what the
// executing ConvMeasurer measures, so it never changes what a tuner
// searches. Same seed => bit-identical TuneResult.history on either
// measurer, and every counted field equals its executed counterpart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "convbound/conv/algorithms.hpp"
#include "convbound/conv/reference.hpp"
#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/engine.hpp"
#include "convbound/tune/registry.hpp"

namespace convbound {
namespace {

ConvShape small_shape() {
  ConvShape s;
  s.cin = 16;
  s.hin = s.win = 16;
  s.cout = 16;
  s.kh = s.kw = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

// Bit-exact trace comparison: configs, per-trial seconds and incumbents.
void expect_identical(const TuneResult& a, const TuneResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_TRUE(a.history[i].config == b.history[i].config)
        << what << " trial " << i;
    EXPECT_EQ(a.history[i].seconds, b.history[i].seconds)
        << what << " trial " << i;
    EXPECT_EQ(a.history[i].best_seconds, b.history[i].best_seconds)
        << what << " trial " << i;
  }
  EXPECT_EQ(a.best_seconds, b.best_seconds) << what;
  EXPECT_TRUE(a.best == b.best) << what;
}

class CountingTrace : public ::testing::TestWithParam<std::string> {};

TEST_P(CountingTrace, HistoryEqualsExecutedHistory) {
  const int kBudget = 32;
  TunerOptions opts;
  opts.seed = 11;
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());

  ConvMeasurer executed(gpu, domain, opts.seed);
  const TuneResult ref = make_tuner(GetParam(), opts)->run(executed, kBudget);
  ASSERT_EQ(ref.history.size(), static_cast<std::size_t>(kBudget));

  BatchMeasurer counted(gpu.spec(), domain);
  const TuneResult res = make_tuner(GetParam(), opts)->run(counted, kBudget);
  expect_identical(ref, res, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllTuners, CountingTrace,
                         ::testing::Values("random", "sa", "ga", "ate",
                                           "bnb"));

// Every counted measurement equals its executed ConvMeasurer counterpart,
// in every LaunchStats field.
void expect_counts_match_execution(BatchMeasurer& counted,
                                   ConvMeasurer& executed,
                                   const std::vector<ConvConfig>& cfgs) {
  const std::uint64_t trials_before = counted.trials();
  const auto ms = counted.measure_batch(cfgs);
  ASSERT_EQ(ms.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Measurement ref = executed.measure(cfgs[i]);
    EXPECT_EQ(ms[i].valid, ref.valid) << cfgs[i].to_string();
    EXPECT_EQ(ms[i].seconds, ref.seconds) << cfgs[i].to_string();
    EXPECT_EQ(ms[i].stats.bytes_loaded, ref.stats.bytes_loaded) << i;
    EXPECT_EQ(ms[i].stats.bytes_stored, ref.stats.bytes_stored) << i;
    EXPECT_EQ(ms[i].stats.flops, ref.stats.flops) << i;
    EXPECT_EQ(ms[i].stats.num_blocks, ref.stats.num_blocks) << i;
    EXPECT_EQ(ms[i].stats.num_launches, ref.stats.num_launches) << i;
    EXPECT_EQ(ms[i].stats.sim_time, ref.stats.sim_time) << i;
  }
  EXPECT_EQ(counted.trials() - trials_before, cfgs.size());
}

// A config whose tile overflows its declared shared memory.
ConvConfig overflowing_config() {
  ConvConfig bad;
  bad.x = bad.y = bad.z = 16;
  bad.smem_budget = 512;  // way too small
  return bad;
}

TEST(BatchMeasurer, MatchesExecutedMeasurementsExactly) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  ConvMeasurer executed(gpu, domain, 5);
  BatchMeasurer counted(gpu.spec(), domain);

  Rng rng(9);
  std::vector<ConvConfig> cfgs;
  for (int i = 0; i < 12; ++i) cfgs.push_back(domain.sample(rng));
  expect_counts_match_execution(counted, executed, cfgs);
}

// The smallest and largest tiles with an invalid config in one batch, in
// every input layout, on both kernel families.
TEST(BatchMeasurer, MixedAndWinogradBatchesMatchExecution) {
  SimGpu gpu(MachineSpec::v100());
  const auto direct = SearchDomain::build(small_shape(), gpu.spec());
  DomainOptions wopts;
  wopts.winograd = true;
  wopts.e = 2;
  const auto winograd = SearchDomain::build(small_shape(), gpu.spec(), wopts);
  ConvMeasurer direct_executed(gpu, direct, 5);
  ConvMeasurer winograd_executed(gpu, winograd, 5);
  BatchMeasurer direct_counted(gpu.spec(), direct);
  BatchMeasurer winograd_counted(gpu.spec(), winograd);

  Rng rng(21);
  std::vector<ConvConfig> by_tile;
  for (int i = 0; i < 64; ++i) by_tile.push_back(direct.sample(rng));
  std::sort(by_tile.begin(), by_tile.end(),
            [](const ConvConfig& a, const ConvConfig& b) {
              return a.tile_elems() < b.tile_elems();
            });
  ASSERT_LT(by_tile.front().tile_elems(), by_tile.back().tile_elems());
  ASSERT_FALSE(direct_executed.measure(overflowing_config()).valid);

  std::vector<ConvConfig> mixed = {overflowing_config(), by_tile.front(),
                                   by_tile[by_tile.size() / 2],
                                   by_tile.back()};
  std::vector<ConvConfig> wcfgs = {overflowing_config()};
  for (int i = 0; i < 4; ++i) wcfgs.push_back(winograd.sample(rng));
  for (Layout l : kAllLayouts) {
    SCOPED_TRACE(to_string(l));
    for (ConvConfig& c : mixed) c.layout = l;
    for (ConvConfig& c : wcfgs) c.layout = l;
    expect_counts_match_execution(direct_counted, direct_executed, mixed);
    expect_counts_match_execution(winograd_counted, winograd_executed, wcfgs);
  }
}

TEST(BatchMeasurer, InvalidConfigsComeBackInvalidInBatch) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer batched(gpu.spec(), domain);

  Rng rng(3);
  const std::vector<ConvConfig> cfgs = {
      domain.sample(rng), overflowing_config(), domain.sample(rng)};
  const auto ms = batched.measure_batch(cfgs);
  EXPECT_TRUE(ms[0].valid);
  EXPECT_FALSE(ms[1].valid);
  EXPECT_TRUE(std::isinf(ms[1].seconds));
  EXPECT_TRUE(ms[2].valid);
}

TEST(BatchMeasurer, EmptyBatchIsNoop) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer batched(gpu.spec(), domain);
  EXPECT_TRUE(batched.measure_batch({}).empty());
  EXPECT_EQ(batched.trials(), 0u);
}

TEST(SimGpuExecMode, SerialAndStripedCountIdentically) {
  SimGpu striped(MachineSpec::test_machine());
  SimGpu serial(MachineSpec::test_machine(), nullptr, ExecMode::kSerial);

  LaunchConfig cfg;
  cfg.num_blocks = 37;
  cfg.threads_per_block = 64;
  cfg.smem_bytes_per_block = 1024;
  auto kernel = [](BlockContext& ctx) {
    auto span = ctx.smem().alloc<float>(16);
    float src[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    ctx.load(src, span.data(), 16);
    ctx.add_flops(2 * 16);
    float out[16];
    ctx.store(out, span.data(), 16);
  };
  const LaunchStats a = striped.launch(cfg, kernel);
  const LaunchStats b = serial.launch(cfg, kernel);
  EXPECT_EQ(a.bytes_loaded, b.bytes_loaded);
  EXPECT_EQ(a.bytes_stored, b.bytes_stored);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.sim_time, b.sim_time);

  // A real kernel: each output element is owned by one block, so the two
  // modes must also produce bit-equal tensors. z = 4 takes the narrow
  // row-axpy body; cout = 40 with z = 20 takes the wide channel-chunk body
  // (one 16-channel chunk plus a 4-channel remainder).
  ConvShape wide = small_shape();
  wide.cout = 40;
  for (const auto& [s, z] :
       {std::pair{small_shape(), 4}, std::pair{wide, 20}}) {
    SCOPED_TRACE(z);
    const ConvProblem prob = make_problem(s, 9);
    ConvConfig c;
    c.x = 5;
    c.y = 6;
    c.z = z;
    Tensor4<float> out_striped(s.batch, s.cout, s.hout(), s.wout());
    Tensor4<float> out_serial(s.batch, s.cout, s.hout(), s.wout());
    const LaunchStats ts = direct_tiled_sim(striped, prob.input,
                                            prob.weights, s, c, out_striped);
    const LaunchStats tr =
        direct_tiled_sim(serial, prob.input, prob.weights, s, c, out_serial);
    EXPECT_EQ(ts.bytes_loaded, tr.bytes_loaded);
    EXPECT_EQ(ts.bytes_stored, tr.bytes_stored);
    EXPECT_EQ(ts.flops, tr.flops);
    EXPECT_EQ(ts.num_blocks, tr.num_blocks);
    EXPECT_EQ(ts.sim_time, tr.sim_time);
    ASSERT_EQ(out_striped.size(), out_serial.size());
    EXPECT_EQ(std::memcmp(out_striped.data(), out_serial.data(),
                          out_striped.size_bytes()),
              0);
  }
}

// autotune_conv counts its candidates; its trace equals the same search run
// on the executing measurer.
TEST(Engine, AutotuneTraceEqualsExecutedTrace) {
  SimGpu gpu(MachineSpec::v100());
  AutotuneOptions opts;
  opts.budget = 24;
  opts.seed = 4;
  const AutotuneOutcome outcome = autotune_conv(gpu, small_shape(), opts);
  EXPECT_GT(outcome.best_gflops, 0);

  TunerOptions topts;
  topts.seed = opts.seed;
  topts.seeds.push_back(default_tiled_config(small_shape(), gpu.spec()));
  ConvMeasurer executed(gpu, outcome.domain, opts.seed);
  const TuneResult ref =
      make_tuner(opts.tuner, topts)->run(executed, opts.budget);
  expect_identical(ref, outcome.result, "engine");
}

TEST(ConvConfigHash, ConsistentWithEquality) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  Rng rng(13);
  const std::hash<ConvConfig> h;
  for (int i = 0; i < 50; ++i) {
    const ConvConfig a = domain.sample(rng);
    ConvConfig b = a;
    EXPECT_EQ(h(a), h(b));
    b.nxt = b.nxt == 1 ? 2 : 1;
    if (!(a == b)) {
      EXPECT_NE(h(a), h(b));
    }
  }
}

}  // namespace
}  // namespace convbound
