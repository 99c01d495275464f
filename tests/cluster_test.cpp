#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "convbound/cluster/cluster.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

// Workload pair at the two corners of the roofline: "compute" has high
// arithmetic intensity (5x5 kernel, many channels relative to its image;
// stride 2 keeps Winograd — which would slash the flop count — out of the
// candidate set), "wide" is bandwidth-bound (1x1, few channels, large
// image — almost no data reuse). On a fleet mixing a flop-optimized and a
// bandwidth-optimized spec, the cost model must send each to its corner.
ServedModel compute_heavy_model() {
  ConvShape s;
  s.cin = s.cout = 48;
  s.hin = s.win = 15;
  s.kh = s.kw = 5;
  s.stride = 2;
  s.pad = 2;
  s.validate();
  return make_served_model("compute", {{"c0", s}}, {});
}

ServedModel bandwidth_bound_model() {
  ConvShape s;
  s.cin = s.cout = 16;
  s.hin = s.win = 128;
  s.kh = s.kw = 1;
  s.pad = 0;
  s.validate();
  return make_served_model("wide", {{"w0", s}}, {});
}

// At the tests' scale, with max_bucket 4 (probed via Planner::enumerate in
// kMeasured mode — the predictions the cluster routes on):
//   compute on dense  9.8us/batch  vs on hbm 12.1us  -> dense preferred
//   wide    on hbm    5.2us/batch  vs on dense 20.2us -> hbm preferred

// Small pipelines with randomized geometries (fixed seed), as in
// serve_test: strided, grouped, and Winograd-eligible layers all appear,
// so every device's serving path exercises every dataflow family.
std::vector<ServedModel> tiny_models() {
  Rng rng(20260727);
  std::vector<ServedModel> models;
  for (int m = 0; m < 3; ++m) {
    std::vector<ConvLayer> layers;
    const int depth = 2 + m % 2;
    for (int l = 0; l < depth; ++l) {
      ConvShape s;
      s.cin = 2 * rng.range(1, 3);
      s.cout = 2 * rng.range(1, 3);
      s.hin = s.win = rng.range(8, 14);
      s.kh = s.kw = 3;
      s.stride = (m == 1 && l == 0) ? 2 : 1;
      s.pad = 1;
      if (m == 2 && l == 0) {  // grouped head
        s.cin = s.cout = 4;
        s.groups = 2;
      }
      s.validate();
      layers.push_back({"m" + std::to_string(m) + "_l" + std::to_string(l), s});
    }
    models.push_back(
        make_served_model("tiny" + std::to_string(m), layers, {}));
  }
  return models;
}

DeviceConfig device_of(const MachineSpec& spec, int workers = 2) {
  DeviceConfig d;
  d.spec = spec;
  d.workers = workers;
  return d;
}

ClusterOptions hetero_options() {
  ClusterOptions opts;
  opts.devices = {device_of(MachineSpec::v100()),
                  device_of(MachineSpec::bandwidth_optimized()),
                  device_of(MachineSpec::compute_optimized())};
  opts.max_queue = 1024;
  opts.max_delay = std::chrono::microseconds(500);
  opts.batch_policy.max_bucket = 4;
  return opts;
}

// ------------------------------------------------------------- router ----

Router::DeviceEntry entry(const std::string& name, double batch_seconds,
                          std::int64_t bucket, int cap) {
  Router::DeviceEntry e;
  e.name = name;
  e.max_pending_groups = cap;
  Router::ModelCost c;
  c.bucket = bucket;
  c.batch_seconds = batch_seconds;
  e.costs.emplace("m", c);
  return e;
}

TEST(Router, BoundAwarePrefersPredictedFastestPerRequest) {
  // "slow" wins on whole-batch time, "fast" wins per request thanks to its
  // bigger bucket — the per-request figure must decide. Scores per group:
  // slow idle (0 + 1.5)/1 = 1.5ms; fast idle (0 + 2.4)/4 = 0.6ms.
  Router router(RoutePolicy::kBoundAware,
                {entry("slow", 1.5e-3, 1, 4), entry("fast", 2.4e-3, 4, 4)});

  // The first group goes to "fast". Virtual-clock feedback: the fast
  // device's accumulated predicted work eventually tips one group to the
  // slow one, then the preference swings back — list scheduling in the
  // proportions the cost model dictates.
  EXPECT_EQ(router.reserve("m").device, 1);  // fast virt 2.4, score 1.2
  EXPECT_EQ(router.reserve("m").device, 1);  // fast virt 4.8, score 1.8
  EXPECT_EQ(router.reserve("m").device, 0);  // slow virt 1.5, score 3.0
  EXPECT_EQ(router.reserve("m").device, 1);  // fast again (1.8 < 3.0)
  // Host-side completions drain the liveness caps but not the virtual
  // clocks — placement proportions must not depend on host speed.
  router.complete(1, "m");
  router.complete(1, "m");
  router.complete(1, "m");
  router.complete(0, "m");
  const Router::Snapshot s = router.snapshot();
  EXPECT_EQ(s.placements[0], 1u);
  EXPECT_EQ(s.placements[1], 3u);
  EXPECT_DOUBLE_EQ(s.virtual_seconds[0], 1.5e-3);
  EXPECT_DOUBLE_EQ(s.virtual_seconds[1], 3 * 2.4e-3);
  EXPECT_EQ(s.pending_groups[0], 0);
  EXPECT_EQ(s.pending_groups[1], 0);
}

TEST(Router, WorkStealingFallbackWhenPreferredSaturates) {
  Router router(RoutePolicy::kBoundAware,
                {entry("fast", 1.0e-3, 1, 2), entry("slow", 8.0e-3, 1, 2)});
  // Two reservations saturate "fast" (cap 2); the third must be stolen by
  // "slow" even though "fast" is still preferred (stolen == 1).
  EXPECT_EQ(router.reserve("m").device, 0);
  EXPECT_EQ(router.reserve("m").device, 0);
  EXPECT_EQ(router.reserve("m").device, 1);
  const Router::Snapshot s = router.snapshot();
  EXPECT_EQ(s.stolen, 1u);
  EXPECT_EQ(s.placements[0], 2u);
  EXPECT_EQ(s.placements[1], 1u);
  router.complete(0, "m");
  router.complete(0, "m");
  router.complete(1, "m");
}

TEST(Router, RoundRobinIgnoresTheCostModel) {
  Router router(RoutePolicy::kRoundRobin,
                {entry("a", 1.0e-3, 1, 8), entry("b", 99.0, 1, 8),
                 entry("c", 1.0e-3, 1, 8)});
  std::vector<std::uint64_t> want = {2, 2, 2};
  for (int i = 0; i < 6; ++i) (void)router.reserve("m");
  EXPECT_EQ(router.snapshot().placements, want);
  EXPECT_EQ(router.snapshot().stolen, 0u);
  for (int i = 0; i < 2; ++i) {
    router.complete(0, "m");
    router.complete(1, "m");
    router.complete(2, "m");
  }
}

TEST(Router, RoundRobinPassingASaturatedTurnIsNotASteal) {
  // Regression: the steal counter used to compare round-robin placements
  // against the rotation's unconstrained pick, so every group placed while
  // any earlier-in-rotation device sat at its cap looked "stolen" — but RR
  // has no cost preference to steal from. Saturate "a" (cap 1) and keep
  // placing: groups flow to "b" with the counter untouched.
  Router router(RoutePolicy::kRoundRobin,
                {entry("a", 1.0e-3, 1, 1), entry("b", 1.0e-3, 1, 8)});
  EXPECT_EQ(router.reserve("m").device, 0);  // a now at its pending cap
  EXPECT_EQ(router.reserve("m").device, 1);
  EXPECT_EQ(router.reserve("m").device, 1);  // a's turn passes again
  const Router::Snapshot s = router.snapshot();
  EXPECT_EQ(s.stolen, 0u);
  EXPECT_EQ(s.placements[0], 1u);
  EXPECT_EQ(s.placements[1], 2u);
  // The cost-driven policies still count genuine steals (covered by
  // WorkStealingFallbackWhenPreferredSaturates above).
  router.complete(0, "m");
  router.complete(1, "m");
  router.complete(1, "m");
}

TEST(Router, PlacementCarriesTheDevicesOwnBucket) {
  Router router(RoutePolicy::kBoundAware,
                {entry("a", 4.0e-3, 4, 1), entry("b", 4.0e-3, 2, 1)});
  const Placement p0 = router.reserve("m");
  EXPECT_EQ(p0.device, 0);
  EXPECT_EQ(p0.bucket, 4);
  const Placement p1 = router.reserve("m");  // a saturated -> stolen by b
  EXPECT_EQ(p1.device, 1);
  EXPECT_EQ(p1.bucket, 2);
  router.complete(0, "m");
  router.complete(1, "m");
}

// -------------------------------------------- bound-aware heterogeneity ----

// The satellite routing test: with a flop-optimized and a
// bandwidth-optimized device in one fleet, the counted plan times must
// route the compute-heavy model to the high-FLOP spec and the
// bandwidth-bound model to the high-HBM spec — deterministically, from the
// warm-time cost table alone (no measurement at routing time). Each
// model's first request is placed on its own new, idle fleet, so the
// placement is that model's preference and nothing is stolen.
TEST(ClusterRouting, ComputeHeavyToDenseBandwidthBoundToHbm) {
  ClusterOptions opts;
  opts.devices = {device_of(MachineSpec::bandwidth_optimized(), 1),
                  device_of(MachineSpec::compute_optimized(), 1)};
  opts.batch_policy.max_bucket = 4;
  const auto placements_on_idle_fleet = [&](const ServedModel& model) {
    ClusterServer cluster({compute_heavy_model(), bandwidth_bound_model()},
                          opts);
    cluster.start();
    EXPECT_EQ(
        cluster.submit({model.name, make_request_input(model, 1)}).get().status,
        ServeStatus::kOk);
    const Router::Snapshot s = cluster.router().snapshot();
    EXPECT_EQ(s.stolen, 0u) << model.name;
    cluster.stop();
    return s.placements;
  };
  using Placed = std::vector<std::uint64_t>;
  EXPECT_EQ(placements_on_idle_fleet(compute_heavy_model()), (Placed{0, 1}))
      << "compute-heavy model must prefer the flop-optimized spec";
  EXPECT_EQ(placements_on_idle_fleet(bandwidth_bound_model()), (Placed{1, 0}))
      << "bandwidth-bound model must prefer the bandwidth-optimized spec";
}

// The Router's cost row is the count of the plans each device serves: per
// device and model, the chosen bucket's whole-batch time is the sum of
// count_plan over the model's layers at that bucket.
TEST(ClusterRouting, CostRowIsTheCountOfTheServedPlans) {
  const auto models = tiny_models();
  ClusterServer cluster(models, hetero_options());
  cluster.start();
  for (std::size_t i = 0; i < cluster.num_devices(); ++i) {
    const MachineSpec& spec = cluster.device(i).config().spec;
    SimGpu gpu(spec);
    Planner planner;
    const std::map<std::string, Router::ModelCost> row = cluster.cost_row(i);
    ASSERT_EQ(row.size(), models.size());
    for (const ServedModel& m : models) {
      const Router::ModelCost& cost = row.at(m.name);
      EXPECT_EQ(cost.bucket, cluster.device(i).engine().bucket_of(m.name));
      double counted = 0;
      for (const ConvLayer& layer : m.layers)
        counted += count_plan(spec,
                              planner.plan(gpu,
                                           shape_at_batch(layer.shape,
                                                          cost.bucket),
                                           PlannerOptions{}),
                              Layout::kNCHW)
                       .sim_time;
      EXPECT_EQ(cost.batch_seconds, counted) << spec.name << " " << m.name;
    }
  }
  cluster.stop();
}

// --------------------------------------------------- serving pipeline ----

TEST(Cluster, SingleRequestMatchesReference) {
  auto models = tiny_models();
  ClusterServer cluster(models, hetero_options());
  cluster.start();

  const Tensor4<float> input = make_request_input(models[1], 7);
  const InferResponse r = cluster.submit({models[1].name, input}).get();
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_GT(r.batch_size, 0);
  EXPECT_GT(r.batch_sim_seconds, 0);
  EXPECT_TRUE(allclose(reference_run(models[1], input), r.output, 1e-3, 1e-3));
  cluster.stop();
}

// The satellite stress test: N client threads x M models over a
// heterogeneous 3-device fleet; every response must match the
// single-threaded reference whichever device served it, and each device
// must hold the zero-plan-miss / zero-workspace-growth steady state after
// its warmup. Runs under ASan/UBSan in CI via the ctest glob.
TEST(Cluster, MultiThreadedStressMatchesReferenceWithZeroPlanMisses) {
  auto models = tiny_models();
  ClusterServer cluster(models, hetero_options());
  cluster.start();

  const ClusterSnapshot warm = cluster.stats();
  for (const DeviceSnapshot& d : warm.devices) {
    EXPECT_EQ(d.stats.plan_misses_after_warm, 0u) << d.name;
    EXPECT_GT(d.stats.plans_memoised, 0u) << d.name;
    EXPECT_GT(d.stats.workspace_buffers, 0u) << d.name;
  }

  constexpr int kClients = 6;
  constexpr int kPerClient = 12;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t seed = 1000u * c + i;
        const ServedModel& m = models[(c + i) % models.size()];
        const Tensor4<float> input = make_request_input(m, seed);
        InferResponse r = cluster.submit({m.name, input}).get();
        ASSERT_EQ(r.status, ServeStatus::kOk);
        const Tensor4<float> expect = reference_run(m, input);
        ASSERT_TRUE(allclose(expect, r.output, 1e-3, 1e-3))
            << m.name << " seed=" << seed
            << " maxdiff=" << max_abs_diff(expect, r.output);
        ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);

  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.fleet.completed,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(s.fleet.rejected, 0u);
  EXPECT_EQ(s.fleet.failed, 0u);
  // Per-device steady state: no planning, no workspace growth past warmup.
  ASSERT_EQ(s.devices.size(), warm.devices.size());
  std::uint64_t placements = 0;
  for (std::size_t i = 0; i < s.devices.size(); ++i) {
    const DeviceSnapshot& d = s.devices[i];
    EXPECT_EQ(d.stats.plan_misses_after_warm, 0u) << d.name;
    EXPECT_EQ(d.stats.plans_memoised, warm.devices[i].stats.plans_memoised)
        << d.name;
    EXPECT_EQ(d.stats.workspace_bytes, warm.devices[i].stats.workspace_bytes)
        << d.name;
    placements += d.placements;
  }
  EXPECT_EQ(placements, s.fleet.batches);
  // Every completed request went through some device's micro-batch.
  std::uint64_t grouped = 0;
  for (const auto& [size, count] : s.fleet.batch_histogram) {
    EXPECT_GE(size, 1);
    EXPECT_LE(size, 4);  // max_bucket
    grouped += static_cast<std::uint64_t>(size) * count;
  }
  EXPECT_EQ(grouped, s.fleet.completed);
  cluster.stop();
}

// ------------------------------------------------ backpressure & stop ----

TEST(Cluster, QueuedBeforeStartServedAfterAndShutdownAfterStop) {
  auto models = tiny_models();
  ClusterOptions opts = hetero_options();
  opts.max_queue = 2;
  ClusterServer cluster(models, opts);

  const Tensor4<float> input = make_request_input(models[0], 1);
  auto f1 = cluster.submit({models[0].name, input});
  auto f2 = cluster.submit({models[0].name, input});
  auto f3 = cluster.submit({models[0].name, input});
  EXPECT_EQ(f3.get().status, ServeStatus::kRejected);  // bounded fleet queue

  cluster.start();
  EXPECT_EQ(f1.get().status, ServeStatus::kOk);
  EXPECT_EQ(f2.get().status, ServeStatus::kOk);
  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.fleet.rejected, 1u);
  EXPECT_EQ(s.fleet.completed, 2u);
  cluster.stop();

  EXPECT_EQ(cluster.submit({models[0].name, input}).get().status,
            ServeStatus::kShutdown);
  EXPECT_THROW(cluster.submit({"no-such-model", Tensor4<float>(1, 1, 1, 1)}),
               Error);
}

// ----------------------------------------------------- chaos lifecycle ----

TEST(Router, DeadDeviceIsExcludedUntilRevived) {
  Router router(RoutePolicy::kBoundAware,
                {entry("fast", 1.0e-3, 1, 4), entry("slow", 8.0e-3, 1, 4)});
  ASSERT_EQ(router.reserve("m").device, 0);
  router.complete(0, "m");

  // Killing the preferred device routes everything through the existing
  // steal path: the survivor is both preference and placement, so the
  // placement is not a steal.
  router.set_alive(0, false);
  EXPECT_FALSE(router.snapshot().alive[0]);
  EXPECT_EQ(router.reserve("m").device, 1);
  EXPECT_EQ(router.snapshot().stolen, 0u);
  router.complete(1, "m");

  // Hot-join: revive with a refreshed cost row (bigger bucket, faster
  // batch); the next placement must already carry the new bucket.
  std::map<std::string, Router::ModelCost> costs;
  costs.emplace("m", Router::ModelCost{4, 0.5e-3});
  router.update_costs(0, std::move(costs));
  router.set_alive(0, true);
  EXPECT_TRUE(router.snapshot().alive[0]);
  const Placement p = router.reserve("m");
  EXPECT_EQ(p.device, 0);
  EXPECT_EQ(p.bucket, 4);
  EXPECT_EQ(router.snapshot().stolen, 0u);
  router.complete(0, "m");
}

TEST(Router, CloseReturnsUnplacedOnFullyDeadFleet) {
  Router router(RoutePolicy::kBoundAware, {entry("only", 1.0e-3, 2, 4)});
  router.set_alive(0, false);
  // Not closed: a blocked reserve() would wait for a revive. Closed + fully
  // dead: reserve() must bail out with device = -1 instead of deadlocking
  // the shutdown path.
  router.close();
  const Placement p = router.reserve("m");
  EXPECT_EQ(p.device, -1);
}

TEST(Cluster, DeviceLossMidFlightLosesZeroRequests) {
  auto models = tiny_models();
  ClusterOptions opts = hetero_options();
  // Slow drain (one worker each) with deep per-device queues so the failed
  // device is very likely holding stranded groups mid-flight.
  for (auto& d : opts.devices) {
    d.workers = 1;
    d.max_pending_groups = 6;
  }
  ClusterServer cluster(models, opts);
  cluster.start();

  constexpr int kRequests = 60;
  std::vector<std::future<InferResponse>> futs;
  std::vector<Tensor4<float>> inputs;
  for (int i = 0; i < kRequests; ++i) {
    const ServedModel& m = models[i % models.size()];
    inputs.push_back(make_request_input(m, 500u + i));
    futs.push_back(cluster.submit({m.name, inputs.back()}));
  }
  // Kill a device while its queue is hot, then keep submitting: the
  // survivors must absorb both the re-queued and the new traffic.
  const std::size_t requeued = cluster.fail_device(0);
  for (int i = 0; i < 10; ++i) {
    const ServedModel& m = models[i % models.size()];
    inputs.push_back(make_request_input(m, 900u + i));
    futs.push_back(cluster.submit({m.name, inputs.back()}));
  }

  // Zero silent loss: every accepted request resolves kOk and matches the
  // reference wherever it (re-)ran.
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const InferResponse r = futs[i].get();
    ASSERT_EQ(r.status, ServeStatus::kOk) << "request " << i;
    const ServedModel& m = models[i % models.size()];
    ASSERT_TRUE(allclose(reference_run(m, inputs[i]), r.output, 1e-3, 1e-3))
        << "request " << i;
  }

  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.fleet.completed, futs.size());
  EXPECT_EQ(s.device_failures, 1u);
  EXPECT_EQ(s.requeued_requests, static_cast<std::uint64_t>(requeued));
  ASSERT_FALSE(s.devices.empty());
  EXPECT_FALSE(s.devices[0].alive);
  for (std::size_t i = 1; i < s.devices.size(); ++i)
    EXPECT_TRUE(s.devices[i].alive) << s.devices[i].name;
  cluster.stop();
}

TEST(Cluster, WarmAndColdReviveRestoreServingWithoutPlanMisses) {
  auto models = tiny_models();
  ClusterServer cluster(models, hetero_options());
  cluster.start();

  const auto roundtrip = [&](std::uint64_t seed) {
    const ServedModel& m = models[seed % models.size()];
    const Tensor4<float> input = make_request_input(m, seed);
    const InferResponse r = cluster.submit({m.name, input}).get();
    ASSERT_EQ(r.status, ServeStatus::kOk);
    ASSERT_TRUE(allclose(reference_run(m, input), r.output, 1e-3, 1e-3));
  };
  roundtrip(1);

  // Warm revive: the engine (plans, sessions) survived the restart.
  cluster.fail_device(1);
  roundtrip(2);  // fleet keeps serving while d1 is down
  cluster.revive_device(1, ReviveMode::kWarm);
  roundtrip(3);

  // Cold revive: hot-join with a rebuilt, re-warmed engine. The router's
  // cost row is refreshed from the new warm-time predictions, and the
  // device reaches the same zero-plan-miss steady state as at fleet start.
  cluster.fail_device(1);
  cluster.revive_device(1, ReviveMode::kCold);
  for (std::uint64_t i = 4; i < 24; ++i) roundtrip(i);

  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.device_failures, 2u);
  EXPECT_EQ(s.device_revives, 2u);
  for (const DeviceSnapshot& d : s.devices) {
    EXPECT_TRUE(d.alive) << d.name;
    EXPECT_EQ(d.stats.plan_misses_after_warm, 0u) << d.name;
  }
  EXPECT_EQ(s.fleet.failed, 0u);
  cluster.stop();
}

TEST(Cluster, EngineSwapUnderTraffic) {
  // Regression for an unlocked engine-pointer read: ClusterDevice workers,
  // start(), and the engine()/stats() accessors used to read `engine_`
  // without engine_mu_, racing the cold revive's unique_ptr swap — a torn
  // read or use-after-free TSan flags and -Wthread-safety now rejects at
  // compile time (the member is CB_GUARDED_BY(engine_mu_)). Drive constant
  // traffic and stats polling while a chaos thread repeatedly fail()s and
  // cold-revives a device, so the swap lands under both kinds of readers.
  auto models = tiny_models();
  ClusterServer cluster(models, hetero_options());
  cluster.start();

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const ClusterSnapshot snap = cluster.stats();
      EXPECT_GE(snap.devices.size(), 2u);
      std::this_thread::yield();
    }
  });

  std::vector<std::future<InferResponse>> futs;
  std::vector<Tensor4<float>> inputs;
  constexpr int kColdRevives = 3;
  constexpr int kPerRound = 12;
  for (int round = 0; round < kColdRevives; ++round) {
    for (int i = 0; i < kPerRound; ++i) {
      const int r = round * kPerRound + i;
      const ServedModel& m = models[r % models.size()];
      inputs.push_back(make_request_input(m, 3000u + r));
      futs.push_back(cluster.submit({m.name, inputs.back()}));
    }
    // The swap itself: engine_ is destroyed and rebuilt while the poller
    // reads device stats and the surviving devices execute batches.
    cluster.fail_device(1);
    cluster.revive_device(1, ReviveMode::kCold);
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const InferResponse r = futs[i].get();
    ASSERT_EQ(r.status, ServeStatus::kOk) << "request " << i;
    const ServedModel& m = models[i % models.size()];
    ASSERT_TRUE(allclose(reference_run(m, inputs[i]), r.output, 1e-3, 1e-3))
        << "request " << i;
  }
  done.store(true, std::memory_order_relaxed);
  poller.join();

  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.device_failures, static_cast<std::uint64_t>(kColdRevives));
  EXPECT_EQ(s.device_revives, static_cast<std::uint64_t>(kColdRevives));
  EXPECT_EQ(s.fleet.completed, futs.size());
  cluster.stop();
}

// ------------------------------------------------- submit-vs-stop race ----

TEST(Cluster, SubmitRacingStopAlwaysResolves) {
  // Regression for the submit-vs-stop race: a submit that passes the
  // stopped_ fast-path while stop() is closing the fleet queue must resolve
  // kShutdown via the queue's own closed verdict — never hang the future.
  auto models = tiny_models();
  ClusterOptions opts = hetero_options();
  ClusterServer cluster(models, opts);
  cluster.start();

  constexpr int kClients = 6;
  constexpr int kPerClient = 40;
  std::vector<std::vector<std::future<InferResponse>>> futs(kClients);
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const Tensor4<float> input =
          make_request_input(models[c % models.size()], 77u + c);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerClient; ++i)
        futs[c].push_back(
            cluster.submit({models[c % models.size()].name, input}));
    });
  }
  go = true;
  // Stop lands mid-hammering; some submits win the race, some lose.
  std::this_thread::sleep_for(std::chrono::microseconds(500));
  cluster.stop();
  for (auto& t : clients) t.join();

  for (auto& per_client : futs) {
    for (auto& f : per_client) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "submit racing stop() hung its future";
      const ServeStatus st = f.get().status;
      EXPECT_TRUE(st == ServeStatus::kOk || st == ServeStatus::kRejected ||
                  st == ServeStatus::kShutdown)
          << to_string(st);
    }
  }
}

TEST(Cluster, DeadDeviceRefusalLeavesTheGroupWithTheCaller) {
  // The deterministic core of the placement-vs-fail race below: a dead
  // device's enqueue() must refuse WITHOUT consuming the group. enqueue()
  // used to take the vector by value, so refusal destroyed the requests and
  // every waiting future threw broken_promise while the dispatch path
  // "re-queued" an empty vector.
  auto models = tiny_models();
  std::map<std::string, ServedModel> by_name;
  for (const ServedModel& m : models) by_name.emplace(m.name, m);
  ClusterOptions opts = hetero_options();
  ClusterDevice dev(by_name, device_of(MachineSpec::v100()), &opts, 0);
  dev.start();
  dev.fail();

  std::vector<PendingRequest> group;
  std::vector<std::future<InferResponse>> futs;
  for (int i = 0; i < 3; ++i) {
    PendingRequest p;
    p.request.model = models[0].name;
    p.request.input = make_request_input(models[0], 5u + i);
    p.enqueued = ServeClock::now();
    futs.push_back(p.promise.get_future());
    group.push_back(std::move(p));
  }
  bool reservation_returned = false;
  EXPECT_FALSE(dev.enqueue(std::move(group), models[0].name,
                           [&] { reservation_returned = true; }));
  EXPECT_FALSE(reservation_returned);  // refusal never ran the group
  ASSERT_EQ(group.size(), 3u) << "refusal consumed the group";
  for (std::size_t i = 0; i < group.size(); ++i) {
    InferResponse r;
    r.status = ServeStatus::kShutdown;
    group[i].promise.set_value(std::move(r));  // promise must still be live
    EXPECT_EQ(futs[i].get().status, ServeStatus::kShutdown);
  }
}

TEST(Cluster, PlacementRacingFailNeverAbandonsRequests) {
  // Regression for a promise-destroying race: when fail_device() lands
  // between the Router's reserve() and the device's enqueue(), the dead
  // device refuses the group and the dispatch path re-queues it. enqueue()
  // used to take the group by value, so refusal destroyed the requests
  // (futures threw broken_promise) and re-queued an empty vector. Flip one
  // device dead/alive under client load until stop so the window is hit
  // over and over; every future must resolve with a real status.
  auto models = tiny_models();
  ClusterOptions opts = hetero_options();
  ClusterServer cluster(models, opts);
  cluster.start();

  constexpr int kClients = 4;
  constexpr int kFlight = 8;       // in-flight futures per client per round
  constexpr int kMaxPerClient = 4000;  // runtime bound, not a target
  constexpr int kChaosCycles = 20;
  std::vector<std::vector<std::future<InferResponse>>> futs(kClients);
  std::atomic<bool> chaos_done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const Tensor4<float> input =
          make_request_input(models[c % models.size()], 31u + c);
      // Closed loop in small flights: there are always requests in flight
      // while the chaos thread flips the device, and each round's wait
      // keeps the client alive for the whole churn.
      while (!chaos_done.load() &&
             futs[c].size() < static_cast<std::size_t>(kMaxPerClient)) {
        const std::size_t begin = futs[c].size();
        for (int i = 0; i < kFlight; ++i)
          futs[c].push_back(
              cluster.submit({models[c % models.size()].name, input}));
        for (std::size_t i = begin; i < futs[c].size(); ++i)
          futs[c][i].wait_for(std::chrono::seconds(60));
      }
    });
  }
  std::thread chaos([&] {
    for (int i = 0; i < kChaosCycles; ++i) {
      cluster.fail_device(0);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      cluster.revive_device(0, ReviveMode::kWarm);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    chaos_done = true;
  });
  chaos.join();
  for (auto& t : clients) t.join();
  const ClusterSnapshot snap = cluster.stats();
  cluster.stop();

  std::size_t served = 0;
  for (auto& per_client : futs) {
    for (auto& f : per_client) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "placement racing fail_device() abandoned a future";
      const ServeStatus st = f.get().status;
      EXPECT_TRUE(st == ServeStatus::kOk || st == ServeStatus::kRejected ||
                  st == ServeStatus::kShutdown)
          << to_string(st);
      if (st == ServeStatus::kOk) ++served;
    }
  }
  // The fleet kept serving through the churn (survivors absorb the load).
  EXPECT_GT(served, 0u);
  EXPECT_GE(snap.device_failures, 1u);
  EXPECT_EQ(snap.device_failures, snap.device_revives);
}

// --------------------------------------------------- lifecycle guards ----

TEST(Cluster, LifecycleMisuseFailsLoudly) {
  auto models = tiny_models();
  ClusterOptions opts = hetero_options();
  {
    ClusterServer cluster(models, opts);
    EXPECT_THROW(cluster.fail_device(0), Error);  // before start
    cluster.start();
    EXPECT_THROW(cluster.start(), Error);              // double start
    EXPECT_THROW(cluster.fail_device(99), Error);      // unknown device
    EXPECT_THROW(cluster.revive_device(99, ReviveMode::kWarm), Error);
    // Reviving a live device is a misuse, not a no-op.
    EXPECT_THROW(cluster.revive_device(0, ReviveMode::kWarm), Error);
    cluster.stop();
    EXPECT_THROW(cluster.start(), Error);  // restart after stop
  }
  // Construction-time model validation fails the constructor loudly.
  ServedModel no_layers;
  no_layers.name = "empty";
  EXPECT_THROW(ClusterServer({no_layers}, opts), Error);
}

// ------------------------------------------------------ fleet tenancy ----

TEST(Cluster, TenantQuotaProtectsPaidHeadroomAtTheFrontDoor) {
  auto models = tiny_models();
  ClusterOptions opts = hetero_options();
  opts.max_queue = 8;
  opts.admission_congestion = 0.5;
  opts.classes = {TenantClass{"paid", 0, 3.0}, TenantClass{"free", 0, 1.0}};
  ClusterServer cluster(models, opts);

  // Not started: admission outcomes are deterministic. Shares: paid 6,
  // free 2; quotas bind at depth 4.
  const Tensor4<float> input = make_request_input(models[0], 21);
  std::vector<std::future<InferResponse>> free_futs, paid_futs;
  for (int i = 0; i < 5; ++i) {
    InferRequest r{models[0].name, input};
    r.tenant = "free";
    free_futs.push_back(cluster.submit(std::move(r)));
  }
  EXPECT_EQ(free_futs[4].get().status, ServeStatus::kQuotaExceeded);
  for (int i = 0; i < 4; ++i) {
    InferRequest r{models[0].name, input};
    r.tenant = "paid";
    paid_futs.push_back(cluster.submit(std::move(r)));
  }

  cluster.start();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(free_futs[i].get().status, ServeStatus::kOk);
    EXPECT_EQ(paid_futs[i].get().status, ServeStatus::kOk);
  }
  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.fleet.quota_rejected, 1u);
  ASSERT_TRUE(s.fleet.classes.count("paid"));
  ASSERT_TRUE(s.fleet.classes.count("free"));
  EXPECT_EQ(s.fleet.classes.at("paid").completed, 4u);
  EXPECT_EQ(s.fleet.classes.at("free").completed, 4u);
  EXPECT_EQ(s.fleet.classes.at("free").quota_rejected, 1u);
  EXPECT_GT(s.fleet.classes.at("paid").latency.quantile(0.99), 0.0);
  cluster.stop();
}

// -------------------------------------------------- accounting identity ----

// Every submitted request ends in exactly one disposition, in the fleet
// total and in every class slice, and the class slices of a tenanted fleet
// add up to the fleet.
void expect_one_disposition_each(const ClusterSnapshot& s) {
  const StatsSnapshot& f = s.fleet;
  EXPECT_EQ(f.submitted, f.completed + f.rejected + f.quota_rejected +
                             f.shutdown_rejected + f.expired + f.failed);
  if (f.classes.empty()) return;  // single-tenant: no class slices
  std::uint64_t submitted = 0, completed = 0, rejected = 0, quota = 0,
                shutdown = 0, expired = 0, failed = 0;
  for (const auto& [name, c] : f.classes) {
    EXPECT_EQ(c.submitted, c.completed + c.rejected + c.quota_rejected +
                               c.shutdown_rejected + c.expired + c.failed)
        << name;
    submitted += c.submitted;
    completed += c.completed;
    rejected += c.rejected;
    quota += c.quota_rejected;
    shutdown += c.shutdown_rejected;
    expired += c.expired;
    failed += c.failed;
  }
  EXPECT_EQ(submitted, f.submitted);
  EXPECT_EQ(completed, f.completed);
  EXPECT_EQ(rejected, f.rejected);
  EXPECT_EQ(quota, f.quota_rejected);
  EXPECT_EQ(shutdown, f.shutdown_rejected);
  EXPECT_EQ(expired, f.expired);
  EXPECT_EQ(failed, f.failed);
}

TEST(Cluster, EveryRequestLandsInExactlyOneDisposition) {
  auto models = tiny_models();
  ClusterOptions opts = hetero_options();
  opts.devices.resize(2);
  opts.max_queue = 8;
  opts.admission_congestion = 0.5;
  opts.classes = {TenantClass{"paid", 0, 3.0}, TenantClass{"free", 0, 1.0}};
  ClusterServer cluster(models, opts);

  // Not started, so admission is deterministic. Shares: paid 6, free 2;
  // quotas bind at depth 4.
  const Tensor4<float> input = make_request_input(models[0], 31);
  const auto submit = [&](const char* tenant, ServeTimePoint deadline) {
    InferRequest r{models[0].name, input};
    r.tenant = tenant;
    r.deadline = deadline;
    return cluster.submit(std::move(r));
  };
  const ServeTimePoint never = ServeTimePoint::max();
  std::vector<std::future<InferResponse>> free_futs, paid_futs;
  for (int i = 0; i < 6; ++i) free_futs.push_back(submit("free", never));
  // Past its deadline on arrival; the sweep of the full queue expires it.
  auto late = submit("paid", ServeClock::now() - std::chrono::seconds(1));
  for (int i = 0; i < 5; ++i) paid_futs.push_back(submit("paid", never));

  cluster.start();
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(free_futs[i].get().status,
              i < 4 ? ServeStatus::kOk : ServeStatus::kQuotaExceeded);
  EXPECT_EQ(late.get().status, ServeStatus::kDeadlineExceeded);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(paid_futs[i].get().status,
              i < 4 ? ServeStatus::kOk : ServeStatus::kRejected);
  cluster.stop();

  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.fleet.submitted, 12u);
  EXPECT_EQ(s.fleet.completed, 8u);
  EXPECT_EQ(s.fleet.quota_rejected, 2u);
  EXPECT_EQ(s.fleet.rejected, 1u);
  EXPECT_EQ(s.fleet.expired, 1u);
  ASSERT_EQ(s.fleet.classes.size(), 2u);
  expect_one_disposition_each(s);
}

// Requests admitted before start() and never served count as shutdown
// rejections when stop() answers them, so they still land in a disposition.
TEST(Cluster, StopBeforeStartCountsQueuedRequestsAsShutdown) {
  auto models = tiny_models();
  ClusterServer cluster(models, hetero_options());
  auto f = cluster.submit({models[0].name, make_request_input(models[0], 3)});
  cluster.stop();
  EXPECT_EQ(f.get().status, ServeStatus::kShutdown);
  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.fleet.submitted, 1u);
  EXPECT_EQ(s.fleet.shutdown_rejected, 1u);
  expect_one_disposition_each(s);
}

// A fully dead fleet cannot place what the scheduler collects; stop()
// sends those groups back to the closed queue, which answers kShutdown.
TEST(Cluster, StopOnADeadFleetCountsCollectedRequestsAsShutdown) {
  auto models = tiny_models();
  ClusterOptions opts = hetero_options();
  opts.devices.resize(1);
  ClusterServer cluster(models, opts);
  cluster.start();
  cluster.fail_device(0);
  auto f = cluster.submit({models[0].name, make_request_input(models[0], 5)});
  cluster.stop();
  EXPECT_EQ(f.get().status, ServeStatus::kShutdown);
  const ClusterSnapshot s = cluster.stats();
  EXPECT_EQ(s.fleet.submitted, 1u);
  EXPECT_EQ(s.fleet.shutdown_rejected, 1u);
  expect_one_disposition_each(s);
}

// ------------------------------------------------------- stats merge ----

TEST(ClusterStats, MergeIsParallelSemantics) {
  // Device a: 30 completions at 10ms over 10 batches of 3; device b: 10 at
  // 2ms, unbatched. Built through ServerStats so the merge sees exactly
  // what real devices report.
  ServerStats sa, sb;
  for (int i = 0; i < 10; ++i)
    sa.record_batch(3, 0.3, {0.010, 0.010, 0.010});
  for (int i = 0; i < 10; ++i) sb.record_batch(1, 0.1, {0.002});

  const StatsSnapshot m = merge_snapshots({sa.snapshot(), sb.snapshot()});
  EXPECT_EQ(m.completed, 40u);
  EXPECT_EQ(m.batches, 20u);
  EXPECT_DOUBLE_EQ(m.sim_seconds, 4.0);
  // Makespan figure: 40 requests done when the busiest device finishes.
  EXPECT_DOUBLE_EQ(m.modelled_rps, 40.0 / 3.0);
  // Exact percentiles of the *combined* population (30x 10ms + 10x 2ms):
  // the true p50 is 10ms — not the 8ms the old completed-weighted average
  // of per-device p50s reported — and the merged histogram holds every
  // completion.
  EXPECT_NEAR(m.latency_p50, 0.010, 0.010 * 0.05);
  EXPECT_NEAR(m.latency_p99, 0.010, 0.010 * 0.05);
  EXPECT_EQ(m.latency.count(), 40u);
  EXPECT_DOUBLE_EQ(m.latency_max, 0.010);
  EXPECT_DOUBLE_EQ(m.latency_mean, (30 * 0.010 + 10 * 0.002) / 40.0);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 2.0);
}

}  // namespace
}  // namespace convbound
