// The stepwise Tuner API's resumability contract: a search that is
// checkpointed at any round boundary, killed, and resumed in a fresh
// process (fresh tuner object, fresh measurer) must reproduce the
// uninterrupted run's trace bit-identically — same configs, same seconds,
// same incumbents — for every registered strategy. Also pins the registry
// (names, aliases, option plumbing) and the checkpoint file framing
// (key/domain validation, atomic save, round trip).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "convbound/conv/algorithms.hpp"
#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/cache.hpp"
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

TunerOptions options_for(const SearchDomain& domain) {
  TunerOptions opts;
  opts.seed = 11;
  opts.seeds.push_back(default_tiled_config(domain.shape(), domain.spec()));
  return opts;
}

class CheckpointResume : public ::testing::TestWithParam<std::string> {};

// Run K trials, checkpoint, "kill" (throw everything away), restore into a
// brand-new tuner + measurer, resume to the full budget: the combined trace
// must equal the uninterrupted run for several kill points, including ones
// inside each strategy's warm-up/init phases.
TEST_P(CheckpointResume, ResumedTraceIsBitIdentical) {
  constexpr int kBudget = 40;
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  const TunerOptions opts = options_for(domain);

  BatchMeasurer m_full(gpu.spec(), domain, /*seed=*/5);
  auto uninterrupted = make_tuner(GetParam(), opts);
  const TuneResult full = uninterrupted->run(m_full, kBudget);
  ASSERT_EQ(static_cast<int>(full.history.size()), kBudget) << GetParam();

  for (const int kill_at : {1, 9, 21}) {
    BatchMeasurer m_a(gpu.spec(), domain, /*seed=*/5);
    auto first = make_tuner(GetParam(), opts);
    first->reset(domain);
    while (first->trials() < kill_at && first->step(m_a, kBudget)) {
    }
    const std::string snapshot = first->save_state();
    const int saved_trials = first->trials();
    first.reset();  // the "kill"

    BatchMeasurer m_b(gpu.spec(), domain, /*seed=*/5);
    auto second = make_tuner(GetParam(), opts);
    second->load_state(domain, snapshot);
    EXPECT_EQ(second->trials(), saved_trials);
    const TuneResult resumed = second->resume(m_b, kBudget);
    expect_identical(full, resumed,
                     GetParam() + " killed at " + std::to_string(kill_at));
  }
}

// A checkpoint of a finished run restores to a tuner that proposes nothing
// more at the same budget (and its result round-trips exactly).
TEST_P(CheckpointResume, FinishedStateRoundTrips) {
  constexpr int kBudget = 24;
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  const TunerOptions opts = options_for(domain);

  BatchMeasurer m(gpu.spec(), domain, /*seed=*/5);
  auto tuner = make_tuner(GetParam(), opts);
  const TuneResult full = tuner->run(m, kBudget);

  auto restored = make_tuner(GetParam(), opts);
  restored->load_state(domain, tuner->save_state());
  BatchMeasurer m2(gpu.spec(), domain, /*seed=*/5);
  const TuneResult again = restored->resume(m2, kBudget);
  expect_identical(full, again, GetParam() + " finished round trip");
}

INSTANTIATE_TEST_SUITE_P(AllTuners, CheckpointResume,
                         ::testing::Values("random", "sa", "ga", "ate",
                                           "bnb"));

TEST(TunerRegistry, CanonicalNamesAndAliases) {
  for (const std::string& name : tuner_names()) {
    EXPECT_EQ(make_tuner(name)->id(), name);
  }
  EXPECT_EQ(make_tuner("simulated-annealing")->id(), "sa");
  EXPECT_EQ(make_tuner("genetic")->id(), "ga");
  EXPECT_EQ(make_tuner("ate(ours)")->id(), "ate");
  EXPECT_EQ(make_tuner("branch-and-bound")->id(), "bnb");
  EXPECT_THROW(make_tuner("gradient-descent"), Error);
}

TEST(TunerState, RejectsForeignTunerState) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer m(gpu.spec(), domain, /*seed=*/5);
  auto random = make_tuner("random");
  random->run(m, 8);
  auto sa = make_tuner("sa");
  EXPECT_THROW(sa->load_state(domain, random->save_state()), Error);
}

// A trial time is positive, or +inf for an invalid config. ate refits its
// cost model on the log of every finite time when it resumes, so a zero,
// negative or NaN time is a malformed checkpoint, not a trial.
TEST(TunerState, RejectsNonPositiveTrialTime) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer m(gpu.spec(), domain, /*seed=*/5);
  auto ate = make_tuner("ate", options_for(domain));
  ate->run(m, 8);
  const std::string state = ate->save_state();
  // Replace the seconds token that ends the first trial line.
  auto with_first_time = [&](const std::string& tok) {
    const std::size_t line = state.find("\nt ") + 1;
    const std::size_t eol = state.find('\n', line);
    const std::size_t sp = state.rfind(' ', eol);
    return state.substr(0, sp + 1) + tok + state.substr(eol);
  };
  for (const char* bad : {"-0x1p+0", "0x0p+0", "-0x0p+0", "nan", "-inf"}) {
    auto fresh = make_tuner("ate", options_for(domain));
    EXPECT_THROW(fresh->load_state(domain, with_first_time(bad)), Error)
        << bad;
  }
  auto fresh = make_tuner("ate", options_for(domain));
  EXPECT_NO_THROW(fresh->load_state(domain, with_first_time("inf")));
  EXPECT_NO_THROW(fresh->load_state(domain, state));
}

TEST(CheckpointFile, RoundTripAndDomainValidation) {
  constexpr int kBudget = 32;
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  const std::string key =
      TuneCache::make_key(gpu.spec(), small_shape(), false, 2);
  const TunerOptions opts = options_for(domain);

  BatchMeasurer m(gpu.spec(), domain, /*seed=*/5);
  auto tuner = make_tuner("ate", opts);
  tuner->reset(domain);
  while (tuner->trials() < 16 && tuner->step(m, kBudget)) {
  }

  const std::string path =
      ::testing::TempDir() + "/convbound_checkpoint_test.txt";
  save_checkpoint_file(path, *tuner, key, domain.size());

  // Resume from disk: the tail of the trace matches the uninterrupted run.
  BatchMeasurer m_full(gpu.spec(), domain, /*seed=*/5);
  auto uninterrupted = make_tuner("ate", opts);
  const TuneResult full = uninterrupted->run(m_full, kBudget);

  BatchMeasurer m2(gpu.spec(), domain, /*seed=*/5);
  auto restored = load_checkpoint_file(path, domain, key, opts);
  EXPECT_EQ(restored->id(), "ate");
  const TuneResult resumed = restored->resume(m2, kBudget);
  expect_identical(full, resumed, "checkpoint file round trip");

  // Wrong problem key: refuses to replay a foreign trace.
  EXPECT_THROW(load_checkpoint_file(path, domain, key + "-other", opts),
               Error);
  // Same key but different domain (unpruned => different config count).
  DomainOptions unpruned;
  unpruned.prune_with_optimality = false;
  const auto other =
      SearchDomain::build(small_shape(), gpu.spec(), unpruned);
  ASSERT_NE(other.size(), domain.size());
  EXPECT_THROW(load_checkpoint_file(path, other, key, opts), Error);
  // Garbage file: loud parse failure, not silent state.
  EXPECT_THROW(load_checkpoint(std::string("not a checkpoint\n"), domain,
                               key, opts),
               Error);
  std::remove(path.c_str());
}

// The engine-level plumbing: autotune_conv with checkpoint + resume
// continues to the same final result as one uninterrupted engine run.
TEST(EngineCheckpoint, AutotuneResumeMatchesUninterrupted) {
  SimGpu gpu(MachineSpec::v100());
  const ConvShape s = small_shape();

  AutotuneOptions base;
  base.budget = 32;
  base.seed = 3;
  base.tuner = "bnb";
  const AutotuneOutcome full = autotune_conv(gpu, s, base);

  const std::string path =
      ::testing::TempDir() + "/convbound_engine_checkpoint_test.txt";
  AutotuneOptions half = base;
  half.budget = 12;
  half.checkpoint = path;
  const AutotuneOutcome partial = autotune_conv(gpu, s, half);
  ASSERT_GE(static_cast<int>(partial.result.history.size()), 12);

  AutotuneOptions rest = base;
  rest.checkpoint = path;
  rest.resume = true;
  const AutotuneOutcome resumed = autotune_conv(gpu, s, rest);
  EXPECT_GT(resumed.resumed_from_trials, 0);
  expect_identical(full.result, resumed.result, "engine checkpoint resume");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace convbound
