#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "convbound/tune/cache.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

TuneCache::Entry entry(std::int64_t x, double gflops) {
  TuneCache::Entry e;
  e.config.x = x;
  e.config.y = 7;
  e.config.z = 3;
  e.config.nxt = 2;
  e.config.nyt = 7;
  e.config.nzt = 1;
  e.config.layout = Layout::kNHWC;
  e.config.smem_budget = 24576;
  e.gflops = gflops;
  return e;
}

TEST(TuneCache, PutGetRoundTrip) {
  TuneCache cache;
  cache.put("k1", entry(4, 100));
  ASSERT_TRUE(cache.get("k1").has_value());
  EXPECT_EQ(cache.get("k1")->config.x, 4);
  EXPECT_FALSE(cache.get("missing").has_value());
}

TEST(TuneCache, BetterEntryWins) {
  TuneCache cache;
  cache.put("k", entry(4, 100));
  cache.put("k", entry(8, 50));  // worse: ignored
  EXPECT_EQ(cache.get("k")->config.x, 4);
  cache.put("k", entry(8, 200));  // better: replaces
  EXPECT_EQ(cache.get("k")->config.x, 8);
}

// Property test over randomized (spec, shape, config) tasks: after the same
// puts, every get() agrees with a reference map applying the
// better-GFlops-wins rule.
TEST(TuneCache, RandomizedPutsKeepTheBest) {
  Rng rng(0xCAFE);
  const std::vector<MachineSpec> specs = {
      MachineSpec::v100(), MachineSpec::titan_x(),
      MachineSpec::bandwidth_optimized(), MachineSpec::compute_optimized()};
  const auto random_entry = [&] {
    TuneCache::Entry e;
    e.config.x = rng.range(1, 32);
    e.config.y = rng.range(1, 32);
    e.config.z = rng.range(1, 16);
    e.config.nxt = rng.range(1, 8);
    e.config.nyt = rng.range(1, 8);
    e.config.nzt = rng.range(1, 4);
    e.config.layout = static_cast<Layout>(rng.range(0, 2));
    e.config.smem_budget = 1024 * rng.range(1, 96);
    e.gflops = 1.0 + 5000.0 * rng.uniform();
    return e;
  };

  TuneCache cache;
  std::map<std::string, TuneCache::Entry> want;  // reference: best wins
  for (int i = 0; i < 300; ++i) {
    ConvShape s;
    s.batch = 1 << rng.range(0, 4);
    s.kh = s.kw = 2 * rng.range(0, 2) + 1;  // 1, 3, 5
    s.hin = s.win = s.kh + rng.range(2, 20);
    s.cin = s.cout = 2 * rng.range(1, 16);
    s.stride = rng.range(1, 2);
    s.pad = s.kh / 2;
    s.validate();
    const std::string key = TuneCache::make_key(
        specs[static_cast<std::size_t>(rng.range(
            0, static_cast<std::int64_t>(specs.size()) - 1))],
        s, rng.range(0, 1) == 1, 2 * rng.range(1, 3));

    // Same key can recur with a different config: the best GFlops must win.
    const TuneCache::Entry e = random_entry();
    cache.put(key, e);
    const auto it = want.find(key);
    if (it == want.end() || e.gflops > it->second.gflops) want[key] = e;
  }

  ASSERT_EQ(cache.size(), want.size());
  for (const auto& [key, e] : want) {
    const auto got = cache.get(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(got->config.x, e.config.x) << key;
    EXPECT_EQ(got->config.y, e.config.y) << key;
    EXPECT_EQ(got->config.z, e.config.z) << key;
    EXPECT_EQ(got->config.nxt, e.config.nxt) << key;
    EXPECT_EQ(got->config.nyt, e.config.nyt) << key;
    EXPECT_EQ(got->config.nzt, e.config.nzt) << key;
    EXPECT_EQ(got->config.layout, e.config.layout) << key;
    EXPECT_EQ(got->config.smem_budget, e.config.smem_budget) << key;
    EXPECT_EQ(got->gflops, e.gflops) << key;
  }
}

TEST(TuneCache, KeyEncodesTask) {
  const MachineSpec spec = MachineSpec::v100();
  ConvShape s;
  s.cin = 3;
  s.hin = s.win = 8;
  s.kh = s.kw = 3;
  const std::string direct = TuneCache::make_key(spec, s, false, 2);
  const std::string wino = TuneCache::make_key(spec, s, true, 2);
  const std::string wino4 = TuneCache::make_key(spec, s, true, 4);
  EXPECT_NE(direct, wino);
  EXPECT_NE(wino, wino4);
  EXPECT_NE(direct.find("V100"), std::string::npos);
}

}  // namespace
}  // namespace convbound
