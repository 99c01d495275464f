// The batched measurement engine's contract: candidate-level parallelism
// must never change what the tuner searches. Same seed => bit-identical
// TuneResult.history whether measurements run serially (ConvMeasurer) or
// through BatchMeasurer with any worker count.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "convbound/conv/algorithms.hpp"
#include "convbound/conv/reference.hpp"
#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/engine.hpp"
#include "convbound/tune/tuners.hpp"

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

std::unique_ptr<Tuner> make_tuner(const std::string& kind,
                                  std::uint64_t seed) {
  if (kind == "random") return std::make_unique<RandomTuner>(seed);
  if (kind == "sa") return std::make_unique<SimulatedAnnealingTuner>(seed);
  if (kind == "ga") return std::make_unique<GeneticTuner>(seed);
  return std::make_unique<AteTuner>(seed);
}

class ParallelDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminism, HistoryIndependentOfWorkerCount) {
  const int kBudget = 32;
  const std::uint64_t kSeed = 11;
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());

  // Reference: the serial measurement path.
  ConvMeasurer serial(gpu, domain, kSeed);
  const TuneResult ref = make_tuner(GetParam(), kSeed)->run(serial, kBudget);
  ASSERT_EQ(ref.history.size(), static_cast<std::size_t>(kBudget));

  for (int workers : {1, 2, 8}) {
    BatchMeasurer batched(gpu.spec(), domain, kSeed, workers);
    EXPECT_EQ(batched.workers(), workers);
    const TuneResult res =
        make_tuner(GetParam(), kSeed)->run(batched, kBudget);
    expect_identical(ref, res,
                     GetParam() + " @" + std::to_string(workers) + "w");
  }
}

INSTANTIATE_TEST_SUITE_P(AllTuners, ParallelDeterminism,
                         ::testing::Values("random", "sa", "ga", "ate"));

TEST(BatchMeasurer, MatchesSerialMeasurementsExactly) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  ConvMeasurer serial(gpu, domain, 5);
  BatchMeasurer batched(gpu.spec(), domain, 5, 4);

  Rng rng(9);
  std::vector<ConvConfig> cfgs;
  for (int i = 0; i < 12; ++i) cfgs.push_back(domain.sample(rng));
  const auto ms = batched.measure_batch(cfgs);
  ASSERT_EQ(ms.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Measurement ref = serial.measure(cfgs[i]);
    EXPECT_EQ(ms[i].valid, ref.valid) << i;
    EXPECT_EQ(ms[i].seconds, ref.seconds) << i;
    EXPECT_EQ(ms[i].stats.bytes_loaded, ref.stats.bytes_loaded) << i;
    EXPECT_EQ(ms[i].stats.bytes_stored, ref.stats.bytes_stored) << i;
    EXPECT_EQ(ms[i].stats.flops, ref.stats.flops) << i;
  }
  EXPECT_EQ(batched.trials(), cfgs.size());
}

TEST(BatchMeasurer, InvalidConfigsComeBackInvalidInBatch) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer batched(gpu.spec(), domain, 5, 2);

  Rng rng(3);
  ConvConfig bad;
  bad.x = bad.y = bad.z = 16;
  bad.smem_budget = 512;  // way too small
  const std::vector<ConvConfig> cfgs = {domain.sample(rng), bad,
                                        domain.sample(rng)};
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
  EXPECT_EQ(serial.exec_mode(), ExecMode::kSerial);

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

TEST(Engine, BatchedAutotuneDeterministicAcrossWorkerCounts) {
  SimGpu gpu(MachineSpec::v100());
  AutotuneOptions opts;
  opts.budget = 24;
  opts.seed = 4;

  opts.workers = 1;
  const AutotuneOutcome one = autotune_conv(gpu, small_shape(), opts);
  opts.workers = 8;
  const AutotuneOutcome eight = autotune_conv(gpu, small_shape(), opts);
  expect_identical(one.result, eight.result, "engine");
  EXPECT_EQ(one.best_gflops, eight.best_gflops);
  EXPECT_GT(one.best_gflops, 0);
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
