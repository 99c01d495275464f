#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "convbound/serve/batch_policy.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/serve/sharded_queue.hpp"
#include "convbound/serve/server.hpp"
#include "convbound/serve/session_pool.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

// Small pipelines with randomized geometries (fixed seed): strided,
// grouped, and Winograd-eligible layers all appear across the three
// models, so the serving path exercises every dataflow family.
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

ServerOptions tiny_options() {
  ServerOptions opts;
  opts.machine = MachineSpec::v100();
  opts.workers = 3;
  opts.replicas = 2;
  opts.max_queue = 512;
  opts.max_delay = std::chrono::microseconds(500);
  opts.batch_policy.max_bucket = 4;
  return opts;
}

// ------------------------------------------------------ request queue ----

TEST(RequestQueue, BoundedPushAndGroupCollect) {
  ShardedRequestQueue q(2, 1);
  auto pending = [](const std::string& model) {
    PendingRequest p;
    p.request.model = model;
    p.enqueued = ServeClock::now();
    return p;
  };
  EXPECT_EQ(q.push(pending("a")), ShardedRequestQueue::Admit::kOk);
  EXPECT_EQ(q.push(pending("b")), ShardedRequestQueue::Admit::kOk);
  EXPECT_EQ(q.push(pending("a")),
            ShardedRequestQueue::Admit::kFull);  // full -> backpressure
  EXPECT_EQ(q.depth(), 2u);

  std::string model;
  ServeTimePoint enq;
  ASSERT_TRUE(q.wait_front(&model, &enq));
  EXPECT_EQ(model, "a");

  // Collecting "a" must skip the interleaved "b" and return immediately
  // once the deadline passes with only one matching entry.
  auto group = q.collect("a", 4, ServeClock::now());
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].request.model, "a");
  EXPECT_EQ(q.depth(), 1u);

  q.close();
  EXPECT_EQ(q.push(pending("c")), ShardedRequestQueue::Admit::kClosed);
  auto rest = q.collect("b", 4, ServeTimePoint::max());  // closed: no wait
  ASSERT_EQ(rest.size(), 1u);
  ASSERT_FALSE(q.wait_front(&model, &enq));  // closed + drained
}

TEST(RequestQueue, ExpiredEntriesAreAnsweredAndFreeCapacity) {
  // Regression: expired requests used to sit in the queue (consuming
  // backpressure budget) until batch-collect time. The queue now answers
  // them in wait_front/collect sweeps.
  ShardedRequestQueue q(2, 1);
  std::size_t expired_reported = 0;
  q.set_on_expired(
      [&](std::size_t, std::size_t n) { expired_reported += n; });
  const auto pending = [](const std::string& model, ServeTimePoint deadline) {
    PendingRequest p;
    p.request.model = model;
    p.request.deadline = deadline;
    p.enqueued = ServeClock::now();
    return p;
  };

  PendingRequest dead = pending("a", ServeClock::now() - std::chrono::seconds(1));
  std::future<InferResponse> dead_fut = dead.promise.get_future();
  ASSERT_EQ(q.push(std::move(dead)), ShardedRequestQueue::Admit::kOk);
  ASSERT_EQ(q.push(pending("b", ServeTimePoint::max())),
            ShardedRequestQueue::Admit::kOk);

  // A push at capacity sweeps dead occupants instead of charging live
  // traffic a rejection: the dead entry is answered and "c" takes its slot.
  EXPECT_EQ(q.push(pending("c", ServeTimePoint::max())),
            ShardedRequestQueue::Admit::kOk);
  ASSERT_EQ(dead_fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const InferResponse r = dead_fut.get();
  EXPECT_EQ(r.status, ServeStatus::kDeadlineExceeded);
  EXPECT_GT(r.latency_seconds, 0);
  EXPECT_EQ(expired_reported, 1u);
  EXPECT_EQ(q.depth(), 2u);
  // Genuinely full of live requests: backpressure stands.
  EXPECT_EQ(q.push(pending("d", ServeTimePoint::max())),
            ShardedRequestQueue::Admit::kFull);

  // wait_front reports the *live* front (the dead "a" is long gone).
  std::string model;
  ServeTimePoint enq;
  ASSERT_TRUE(q.wait_front(&model, &enq));
  EXPECT_EQ(model, "b");

  // collect sweeps too: a dead "b" never joins a "b" group.
  PendingRequest dead_b =
      pending("b", ServeClock::now() - std::chrono::seconds(1));
  std::future<InferResponse> dead_b_fut = dead_b.promise.get_future();
  q.drain();
  ASSERT_EQ(q.push(std::move(dead_b)), ShardedRequestQueue::Admit::kOk);
  ASSERT_EQ(q.push(pending("b", ServeTimePoint::max())),
            ShardedRequestQueue::Admit::kOk);
  const auto group = q.collect("b", 4, ServeClock::now());
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].request.deadline, ServeTimePoint::max());
  EXPECT_EQ(dead_b_fut.get().status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(expired_reported, 2u);
}

// ------------------------------------------------------- batch policy ----

TEST(BatchPolicy, BoundGuidedBucketSitsAtTheKnee) {
  const auto models = tiny_models();
  Planner planner;
  const PlannerOptions popts;
  BatchPolicyOptions opts;
  opts.max_bucket = 8;
  const BucketChoice c = choose_batch_bucket(models[0], MachineSpec::v100(),
                                             planner, popts, 0, opts);
  ASSERT_EQ(c.scores.size(), 4u);  // 1, 2, 4, 8
  // Launch-overhead amortisation: per-request predicted time never gets
  // worse with batching on these tiny layers.
  for (std::size_t i = 1; i < c.scores.size(); ++i)
    EXPECT_LE(c.scores[i].predicted_seconds_per_request,
              c.scores[i - 1].predicted_seconds_per_request * 1.001);
  EXPECT_GT(c.bucket, 1);  // batching predicted to pay off
  // The chosen bucket is a scored candidate and marked as chosen.
  bool found = false;
  for (const auto& s : c.scores)
    if (s.bucket == c.bucket) found = s.chosen;
  EXPECT_TRUE(found);

  // A tight latency budget forces small batches.
  BatchPolicyOptions tight = opts;
  tight.latency_budget_seconds = 1e-12;
  EXPECT_EQ(choose_batch_bucket(models[0], MachineSpec::v100(), planner,
                                popts, 0, tight)
                .bucket,
            1);
}

// --------------------------------------------------- serving pipeline ----

TEST(Serve, SingleRequestMatchesReference) {
  auto models = tiny_models();
  InferenceServer server(models, tiny_options());
  server.start();

  const Tensor4<float> input = make_request_input(models[1], 7);
  auto fut = server.submit({models[1].name, input});
  const InferResponse r = fut.get();
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_GT(r.batch_size, 0);
  EXPECT_GT(r.batch_sim_seconds, 0);

  const Tensor4<float> expect = reference_run(models[1], input);
  EXPECT_TRUE(allclose(expect, r.output, 1e-3, 1e-3))
      << "maxdiff=" << max_abs_diff(expect, r.output);
  server.stop();
}

// The satellite stress test: N client threads x M models with randomized
// shapes; every response must match the single-threaded reference, and
// steady-state serving must hit zero plan-cache misses and zero workspace
// growth after warmup.
TEST(Serve, MultiThreadedStressMatchesReferenceWithZeroPlanMisses) {
  auto models = tiny_models();
  InferenceServer server(models, tiny_options());
  server.start();

  const StatsSnapshot warm = server.stats();
  EXPECT_EQ(warm.plan_misses_after_warm, 0u);
  EXPECT_GT(warm.plans_memoised, 0u);
  EXPECT_GT(warm.workspace_buffers, 0u);

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
        InferResponse r = server.submit({m.name, input}).get();
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

  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.failed, 0u);
  // Steady state: no planning, no workspace growth past warmup.
  EXPECT_EQ(s.plan_misses_after_warm, 0u);
  EXPECT_EQ(s.plans_memoised, warm.plans_memoised);
  EXPECT_EQ(s.workspace_buffers, warm.workspace_buffers);
  EXPECT_EQ(s.workspace_bytes, warm.workspace_bytes);
  // Every completed request went through a micro-batch.
  std::uint64_t grouped = 0;
  for (const auto& [size, count] : s.batch_histogram) {
    EXPECT_GE(size, 1);
    EXPECT_LE(size, 4);  // max_bucket
    grouped += static_cast<std::uint64_t>(size) * count;
  }
  EXPECT_EQ(grouped, s.completed);
  server.stop();
}

// warm() leases every workspace geometry run() leases, with the same
// overlapping lifetimes, and runs no kernel: afterwards, serving grows the
// workspace by no buffer and no byte, and every lease is a reuse. Covers
// the perfbench-scale served models and a tiny pipeline with two adapters:
// one keeps its producer's output geometry (so two buffers of that shape
// are live at once), the other changes channels and size.
TEST(ServeSession, WarmLeasesEveryGeometryRunLeases) {
  ServedModelOptions scale;
  scale.max_layers = 3;
  scale.channel_cap = 16;
  scale.spatial_cap = 28;
  const auto conv = [](std::int64_t cin, std::int64_t hw, std::int64_t cout,
                       std::int64_t stride) {
    ConvShape s;
    s.cin = cin;
    s.hin = s.win = hw;
    s.cout = cout;
    s.kh = s.kw = 3;
    s.stride = stride;
    s.pad = 1;
    return s;
  };
  const std::vector<ServedModel> models = {
      make_served_model("squeezenet", squeezenet_v10(1), scale),
      make_served_model("resnet-18", resnet18(1), scale),
      make_served_model("adapters", {{"l0", conv(3, 10, 4, 1)},
                                     {"l1", conv(4, 10, 2, 1)},
                                     {"l2", conv(6, 5, 2, 2)}})};
  for (const ServedModel& m : models) {
    Planner planner;
    for (std::int64_t bucket : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << m.name << " bucket " << bucket);
      ServeSession session(m, bucket, MachineSpec::v100(), planner,
                           PlannerOptions{});
      session.warm();
      Workspace& ws = session.workspace();
      const std::size_t buffers = ws.buffers();
      const std::uint64_t bytes = ws.bytes_reserved();
      const std::uint64_t acquires = ws.acquires();
      const std::uint64_t reuses = ws.reuses();
      for (int pass = 0; pass < 2; ++pass) {
        // As the engine does: the batch input is leased from the session.
        Workspace::Lease in =
            ws.acquire(bucket, m.input_c(), m.input_h(), m.input_w());
        in.tensor().fill(0.0f);
        const ServeSession::BatchResult res = session.run(in.tensor());
        EXPECT_TRUE(res.output);
      }
      EXPECT_EQ(ws.buffers(), buffers);
      EXPECT_EQ(ws.bytes_reserved(), bytes);
      EXPECT_GT(ws.acquires(), acquires);
      EXPECT_EQ(ws.reuses() - reuses, ws.acquires() - acquires);
    }
  }
}

// ------------------------------------------------ backpressure & stop ----

TEST(Serve, BackpressureRejectsDeterministicallyBeforeStart) {
  auto models = tiny_models();
  ServerOptions opts = tiny_options();
  opts.max_queue = 2;
  InferenceServer server(models, opts);

  // Not started: nothing drains the queue, so the third submit must be
  // rejected by the bounded queue.
  const Tensor4<float> input = make_request_input(models[0], 1);
  auto f1 = server.submit({models[0].name, input});
  auto f2 = server.submit({models[0].name, input});
  auto f3 = server.submit({models[0].name, input});
  EXPECT_EQ(f3.get().status, ServeStatus::kRejected);

  server.start();  // now the two queued requests get served
  EXPECT_EQ(f1.get().status, ServeStatus::kOk);
  EXPECT_EQ(f2.get().status, ServeStatus::kOk);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
  server.stop();

  // After stop, submits complete immediately with kShutdown.
  EXPECT_EQ(server.submit({models[0].name, input}).get().status,
            ServeStatus::kShutdown);
}

TEST(Serve, ExpiredDeadlineIsDroppedNotExecuted) {
  auto models = tiny_models();
  InferenceServer server(models, tiny_options());
  const Tensor4<float> input = make_request_input(models[0], 3);

  InferRequest expired{models[0].name, input,
                       ServeClock::now() - std::chrono::seconds(1)};
  auto f1 = server.submit(std::move(expired));
  auto f2 = server.submit({models[0].name, input});  // no deadline
  server.start();

  EXPECT_EQ(f1.get().status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(f2.get().status, ServeStatus::kOk);
  EXPECT_EQ(server.stats().expired, 1u);
  server.stop();
}

TEST(Serve, ExpiredSubmitUnderSaturationResolvesAndFreesQueueBudget) {
  // A saturated server: enough queued work that an expired request would
  // previously ride the whole max-delay + executor-slot wait before its
  // kDeadlineExceeded resolved, holding a queue slot the entire time. The
  // queue-level sweep must answer it and give the slot back to live
  // traffic.
  auto models = tiny_models();
  ServerOptions opts = tiny_options();
  opts.workers = 1;
  opts.max_queue = 64;
  InferenceServer server(models, opts);
  server.start();

  const Tensor4<float> input = make_request_input(models[0], 5);
  std::vector<std::future<InferResponse>> live;
  for (int i = 0; i < 24; ++i)
    live.push_back(server.submit({models[0].name, input}));
  auto dead = server.submit({models[0].name, input,
                             ServeClock::now() - std::chrono::seconds(1)});
  for (int i = 0; i < 24; ++i)
    live.push_back(server.submit({models[0].name, input}));

  EXPECT_EQ(dead.get().status, ServeStatus::kDeadlineExceeded);
  for (auto& f : live) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 48u);
  EXPECT_EQ(s.rejected, 0u);
  server.stop();
}

TEST(BatchPolicy, FeasibilityChargesTheGroupFormationDelay) {
  // The budget must cover max_delay + predicted batch time: a bucket whose
  // batch alone fits is still infeasible when the scheduler's formation
  // window eats the headroom. The one layer fills the v100 at batch 1, so a
  // batch of two takes longer (the tiny models' layers underfill the
  // machine, and their counted batch time is flat across buckets).
  ConvShape wave;
  wave.cin = wave.cout = 32;
  wave.hin = wave.win = 56;
  wave.kh = wave.kw = 3;
  wave.pad = 1;
  wave.validate();
  const ServedModel model = make_served_model("wave", {{"l0", wave}}, {});
  const MachineSpec spec = MachineSpec::v100();
  Planner planner;
  const PlannerOptions popts;
  BatchPolicyOptions free_opts;
  free_opts.max_bucket = 2;
  free_opts.latency_budget_seconds = 0;  // unconstrained probe
  const double b1 =
      score_batch_bucket(model, spec, planner, popts, 0, 1, free_opts)
          .predicted_batch_seconds;
  const double b2 =
      score_batch_bucket(model, spec, planner, popts, 0, 2, free_opts)
          .predicted_batch_seconds;
  ASSERT_GT(b2, b1);

  // Budget B with b2 <= B (old rule: bucket 2 feasible) but
  // delay + b2 > B >= delay + b1 (new rule: only bucket 1 fits).
  BatchPolicyOptions opts;
  opts.max_bucket = 2;
  const double delay = b2;
  opts.latency_budget_seconds = b2 + (b1 + b2) / 2;
  const BucketChoice constrained =
      choose_batch_bucket(model, spec, planner, popts, delay, opts);
  EXPECT_EQ(constrained.bucket, 1);
  for (const auto& s : constrained.scores) {
    if (s.bucket == 2) {
      EXPECT_FALSE(s.feasible);
    }
  }

  // Same budget with no formation delay: bucket 2 is back on the table.
  for (const auto& s :
       choose_batch_bucket(model, spec, planner, popts, 0, opts).scores)
    EXPECT_TRUE(s.feasible) << "bucket " << s.bucket;

  // Boundary: the budget exactly covers delay + batch -> feasible.
  BatchPolicyOptions exact = opts;
  exact.latency_budget_seconds = delay + b2;
  const BucketChoice at_edge =
      choose_batch_bucket(model, spec, planner, popts, delay, exact);
  for (const auto& s : at_edge.scores) {
    if (s.bucket == 2) {
      EXPECT_TRUE(s.feasible);
    }
  }
}

TEST(Serve, RejectsMalformedRequests) {
  auto models = tiny_models();
  InferenceServer server(models, tiny_options());
  EXPECT_THROW(server.submit({"no-such-model", Tensor4<float>(1, 1, 1, 1)}),
               Error);
  Tensor4<float> wrong(1, models[0].input_c() + 1, models[0].input_h(),
                       models[0].input_w());
  EXPECT_THROW(server.submit({models[0].name, wrong}), Error);
}

// ------------------------------------------------ tuned warm-up ---------

TEST(Serve, TunedPlanningSharesTheDevicePlanner) {
  auto models = tiny_models();
  ServerOptions opts = tiny_options();
  opts.plan_mode = PlanMode::kTuned;
  InferenceServer server(models, opts);
  // Warmup searches each distinct layer to its certified optimum through
  // the device's one planner while it scores the buckets; every warm
  // session then hits the planner's memo.
  server.start();

  const Tensor4<float> input = make_request_input(models[0], 11);
  InferResponse r = server.submit({models[0].name, input}).get();
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_TRUE(allclose(reference_run(models[0], input), r.output, 1e-3, 1e-3));
  EXPECT_EQ(server.stats().plan_misses_after_warm, 0u);
  server.stop();
}

// ------------------------------------------------- tenancy & admission ----

TEST(RequestQueue, EdfOrdersByEffectiveDeadline) {
  ShardedRequestQueue q(8, 1);
  const auto now = ServeClock::now();
  const auto at = [&](int ms) { return now + std::chrono::milliseconds(ms); };
  const auto pending = [&](const std::string& model, ServeTimePoint deadline,
                           ServeTimePoint class_deadline, int arrival_ms) {
    PendingRequest p;
    p.request.model = model;
    p.request.deadline = deadline;
    p.class_deadline = class_deadline;
    p.enqueued = at(arrival_ms);
    return p;
  };

  // "far" arrives first with no deadline; "tight" arrives later but its
  // class budget makes it more urgent — wait_front must surface it.
  ASSERT_EQ(q.push(pending("far", ServeTimePoint::max(),
                           ServeTimePoint::max(), 0)),
            ShardedRequestQueue::Admit::kOk);
  ASSERT_EQ(q.push(pending("tight", ServeTimePoint::max(),
                           at(60'000), 1)),
            ShardedRequestQueue::Admit::kOk);
  std::string model;
  ServeTimePoint enq;
  ASSERT_TRUE(q.wait_front(&model, &enq));
  EXPECT_EQ(model, "tight");

  // Within one model, collect returns most-urgent-first on the effective
  // deadline (min of explicit deadline and class budget), not FIFO.
  ASSERT_EQ(q.push(pending("x", at(90'000), ServeTimePoint::max(), 2)),
            ShardedRequestQueue::Admit::kOk);
  ASSERT_EQ(q.push(pending("x", ServeTimePoint::max(), at(30'000), 3)),
            ShardedRequestQueue::Admit::kOk);
  ASSERT_EQ(q.push(pending("x", at(70'000), at(50'000), 4)),
            ShardedRequestQueue::Admit::kOk);
  const auto group = q.collect("x", 2, ServeClock::now());
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].effective_deadline(), at(30'000));
  EXPECT_EQ(group[1].effective_deadline(), at(50'000));
  EXPECT_EQ(q.depth(), 3u);  // far, tight, and the 90s "x" stay queued
}

TEST(RequestQueue, EdfFifoTieOrderSurvivesOrderedMapStore) {
  // Pin the ordering contract across the data-structure swap (deque +
  // O(n) most-urgent scan -> map sorted on (effective_deadline, enqueued,
  // seq)): identical effective deadlines fall back to arrival order, and
  // identical arrivals fall back to insertion order — plain FIFO for
  // deadline-free traffic.
  ShardedRequestQueue q(16, 1);
  const auto now = ServeClock::now();
  const auto at = [&](int ms) { return now + std::chrono::milliseconds(ms); };
  const auto pending = [&](ServeTimePoint deadline, ServeTimePoint enqueued,
                           int tag) {
    PendingRequest p;
    p.request.model = "m";
    p.request.deadline = deadline;
    p.enqueued = enqueued;
    p.request.tenant = "t" + std::to_string(tag);  // identifies the entry
    return p;
  };

  // Same deadline, different arrivals (pushed out of arrival order).
  ASSERT_EQ(q.push(pending(at(60'000), at(2), 1)),
            ShardedRequestQueue::Admit::kOk);
  ASSERT_EQ(q.push(pending(at(60'000), at(1), 0)),
            ShardedRequestQueue::Admit::kOk);
  // No deadline at all, identical arrival timestamps: insertion order.
  ASSERT_EQ(q.push(pending(ServeTimePoint::max(), at(3), 2)),
            ShardedRequestQueue::Admit::kOk);
  ASSERT_EQ(q.push(pending(ServeTimePoint::max(), at(3), 3)),
            ShardedRequestQueue::Admit::kOk);
  // A later-pushed but more urgent deadline still jumps the whole line.
  ASSERT_EQ(q.push(pending(at(30'000), at(4), 4)),
            ShardedRequestQueue::Admit::kOk);

  const auto group = q.collect("m", 5, ServeClock::now());
  ASSERT_EQ(group.size(), 5u);
  EXPECT_EQ(group[0].request.tenant, "t4");  // EDF first
  EXPECT_EQ(group[1].request.tenant, "t0");  // tie -> earlier arrival
  EXPECT_EQ(group[2].request.tenant, "t1");
  EXPECT_EQ(group[3].request.tenant, "t2");  // tie on arrival -> insertion
  EXPECT_EQ(group[4].request.tenant, "t3");
}

TEST(RequestQueue, PushReportsPostInsertDepth) {
  // Satellite fix for the submit double-lock: the depth the stats need
  // comes out of push under the same lock as the insert.
  ShardedRequestQueue q(4, 1);
  std::size_t depth_after = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    PendingRequest p;
    p.request.model = "m";
    p.enqueued = ServeClock::now();
    ASSERT_EQ(q.push(std::move(p), &depth_after),
              ShardedRequestQueue::Admit::kOk);
    EXPECT_EQ(depth_after, i + 1);
    EXPECT_EQ(q.depth(), depth_after);
  }
}

TEST(RequestQueue, WeightedFairQuotaBindsOnlyAboveCongestion) {
  // capacity 8, paid:free weights 3:1 -> shares 6 and 2; congestion 0.5
  // -> quotas bind once 4 entries are queued.
  const TenantTable table({TenantClass{"paid", 0, 3.0},
                           TenantClass{"free", 0, 1.0}});
  ShardedRequestQueue q(8, 1);
  q.set_tenancy(&table, 0.5);
  const auto pending = [&](const std::string& cls) {
    PendingRequest p;
    p.request.model = "m";
    p.class_index = table.resolve(cls);
    p.tenant_class = cls;
    p.enqueued = ServeClock::now();
    return p;
  };

  // Work-conserving below the threshold: free fills past its share of 2.
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(q.push(pending("free")), ShardedRequestQueue::Admit::kOk) << i;
  // At the threshold the over-share class is cut off...
  EXPECT_EQ(q.push(pending("free")), ShardedRequestQueue::Admit::kQuota);
  EXPECT_EQ(q.class_depth(table.resolve("free")), 4u);
  // ...while the under-share class still has protected headroom.
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(q.push(pending("paid")), ShardedRequestQueue::Admit::kOk) << i;
  // Genuinely full now: capacity, not quota, rejects either class.
  EXPECT_EQ(q.push(pending("paid")), ShardedRequestQueue::Admit::kFull);
  EXPECT_EQ(q.push(pending("free")), ShardedRequestQueue::Admit::kFull);

  q.close();
  for (auto& p : q.drain()) p.promise.set_value(InferResponse{});
}

TEST(TenantTable, ResolvesNamesAndValidatesConfig) {
  const TenantTable table({TenantClass{"paid", 0.5, 3.0},
                           TenantClass{"free", 0, 1.0}});
  EXPECT_EQ(table.resolve("paid"), 0u);
  EXPECT_EQ(table.resolve("free"), 1u);
  EXPECT_EQ(table.resolve(""), 0u);         // default class
  EXPECT_EQ(table.resolve("unknown"), 0u);  // catch-all

  const auto now = ServeClock::now();
  // Budgeted class: effective deadline = min(explicit, now + budget).
  const auto eff = table.effective_deadline(0, now, ServeTimePoint::max());
  EXPECT_LT(eff, ServeTimePoint::max());
  const auto tight = now + std::chrono::milliseconds(1);
  EXPECT_EQ(table.effective_deadline(0, now, tight), tight);
  // Unbudgeted class: the explicit deadline is the only deadline.
  EXPECT_EQ(table.effective_deadline(1, now, ServeTimePoint::max()),
            ServeTimePoint::max());

  EXPECT_THROW(TenantTable({TenantClass{"a", 0, 0.0}}), Error);
  EXPECT_THROW(TenantTable({TenantClass{"a", 0, 1.0},
                            TenantClass{"a", 0, 1.0}}),
               Error);
  EXPECT_THROW(TenantTable({TenantClass{"a", 0, 1.0},
                            TenantClass{"", 0, 1.0}}),
               Error);
}

// A budget past the serving clock's range is unbounded. Cast to clock ticks,
// 1e10 s overflows and wraps the deadline 9.2e9 s into the past, which
// would expire every request of `--classes paid:1e13`. A non-finite budget
// is a configuration error.
TEST(TenantTable, BudgetPastTheClockIsUnboundedAndNanIsRejected) {
  const TenantTable table({TenantClass{"second", 1.0, 1.0},
                           TenantClass{"centuries", 1e10, 1.0},
                           TenantClass{"huge", 1e297, 1.0}});
  const auto now = ServeClock::now();
  const auto tight = now + std::chrono::milliseconds(1);
  EXPECT_EQ(table.effective_deadline(0, now, ServeTimePoint::max()),
            now + std::chrono::seconds(1));
  EXPECT_EQ(table.effective_deadline(0, now, tight), tight);
  for (std::size_t i : {1u, 2u}) {
    EXPECT_EQ(table.effective_deadline(i, now, ServeTimePoint::max()),
              ServeTimePoint::max())
        << table.cls(i).name;
    EXPECT_EQ(table.effective_deadline(i, now, tight), tight)
        << table.cls(i).name;
  }
  EXPECT_THROW(TenantTable({TenantClass{"nan", std::nan(""), 1.0}}), Error);
  EXPECT_THROW(TenantTable({TenantClass{"negative", -1e-3, 1.0}}), Error);
  EXPECT_THROW(
      TenantTable({TenantClass{
          "inf", std::numeric_limits<double>::infinity(), 1.0}}),
      Error);
}

TEST(Serve, TenantClassesGetPerClassStatsAndQuotaStatus) {
  auto models = tiny_models();
  ServerOptions opts = tiny_options();
  opts.max_queue = 8;
  opts.admission_congestion = 0.5;
  opts.classes = {TenantClass{"paid", 0, 3.0}, TenantClass{"free", 0, 1.0}};
  InferenceServer server(models, opts);

  // Not started: nothing drains, so admission outcomes are deterministic.
  const Tensor4<float> input = make_request_input(models[0], 7);
  std::vector<std::future<InferResponse>> free_futs;
  for (int i = 0; i < 5; ++i) {
    InferRequest r{models[0].name, input};
    r.tenant = "free";
    free_futs.push_back(server.submit(std::move(r)));
  }
  // Share of 2 but work-conserving up to the congestion threshold of 4;
  // the fifth free submit is the first over-quota one.
  EXPECT_EQ(free_futs[4].get().status, ServeStatus::kQuotaExceeded);
  std::vector<std::future<InferResponse>> paid_futs;
  for (int i = 0; i < 4; ++i) {
    InferRequest r{models[0].name, input};
    r.tenant = "paid";
    paid_futs.push_back(server.submit(std::move(r)));
  }

  server.start();  // drains the 4 free + 4 paid queued above
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(free_futs[i].get().status, ServeStatus::kOk);
    EXPECT_EQ(paid_futs[i].get().status, ServeStatus::kOk);
  }
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.quota_rejected, 1u);
  ASSERT_TRUE(s.classes.count("paid"));
  ASSERT_TRUE(s.classes.count("free"));
  EXPECT_EQ(s.classes.at("paid").completed, 4u);
  EXPECT_EQ(s.classes.at("paid").quota_rejected, 0u);
  EXPECT_EQ(s.classes.at("free").completed, 4u);
  EXPECT_EQ(s.classes.at("free").quota_rejected, 1u);
  EXPECT_GT(s.classes.at("paid").latency.quantile(0.99), 0.0);
  server.stop();
}

TEST(Serve, ClassLatencyBudgetExpiresUnservedRequests) {
  auto models = tiny_models();
  ServerOptions opts = tiny_options();
  // A 1ms class budget on a not-yet-started server: the queued request's
  // effective deadline passes long before start() could serve it.
  opts.classes = {TenantClass{"default", 0, 1.0},
                  TenantClass{"impatient", 0.001, 1.0}};
  InferenceServer server(models, opts);
  const Tensor4<float> input = make_request_input(models[0], 9);

  InferRequest tight{models[0].name, input};
  tight.tenant = "impatient";
  auto f_tight = server.submit(std::move(tight));
  auto f_ok = server.submit({models[0].name, input});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  server.start();
  EXPECT_EQ(f_tight.get().status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(f_ok.get().status, ServeStatus::kOk);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.expired, 1u);
  ASSERT_TRUE(s.classes.count("impatient"));
  EXPECT_EQ(s.classes.at("impatient").expired, 1u);
  server.stop();
}

// --------------------------------------------------- lifecycle guards ----

// A request admitted before start() and answered kShutdown by stop() is
// counted once as submitted and once as a shutdown rejection.
TEST(Serve, StopBeforeStartCountsQueuedRequestsAsShutdown) {
  auto models = tiny_models();
  InferenceServer server(models, tiny_options());
  auto f = server.submit({models[0].name, make_request_input(models[0], 4)});
  server.stop();
  EXPECT_EQ(f.get().status, ServeStatus::kShutdown);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.shutdown_rejected, 1u);
}

TEST(Serve, LifecycleMisuseFailsLoudly) {
  auto models = tiny_models();
  InferenceServer server(models, tiny_options());
  server.start();
  EXPECT_THROW(server.start(), Error);  // double start
  server.stop();
  EXPECT_THROW(server.start(), Error);  // restart after stop

  // Construction-time model validation: malformed models must fail the
  // constructor, not crash warm() or a batch later.
  ServedModel no_layers;
  no_layers.name = "empty";
  EXPECT_THROW(InferenceServer({no_layers}, tiny_options()), Error);

  ServedModel mismatched = tiny_models()[0];
  mismatched.weights.pop_back();
  EXPECT_THROW(InferenceServer({mismatched}, tiny_options()), Error);

  ServedModel unnamed = tiny_models()[0];
  unnamed.name.clear();
  EXPECT_THROW(InferenceServer({unnamed}, tiny_options()), Error);
}

// ------------------------------------- expiry/close interleaving stress ----

TEST(RequestQueue, ExpiryCloseInterleavingStressCompletesEveryRequestOnce) {
  // Many producers push a mix of already-expired, soon-expiring, and
  // immortal requests while a consumer collects and a sweeper polls
  // wait_front; close() lands mid-stream. Every future must resolve exactly
  // once (a double completion would throw std::future_error inside the
  // queue) and the depth watermark must never exceed capacity.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 200;
  constexpr std::size_t kCapacity = 64;
  ShardedRequestQueue q(kCapacity, 1);
  std::atomic<std::size_t> expired_reported{0};
  q.set_on_expired([&](std::size_t, std::size_t n) { expired_reported += n; });

  std::vector<std::future<InferResponse>> futs(
      static_cast<std::size_t>(kProducers * kPerProducer));
  std::atomic<std::size_t> accepted{0};
  std::atomic<bool> consumer_stop{false};

  std::thread consumer([&] {
    std::string model;
    ServeTimePoint enq;
    while (!consumer_stop.load()) {
      // Collect whatever model sits at the EDF front; the short deadline
      // keeps the consumer responsive to close().
      if (!q.wait_front(&model, &enq)) return;  // closed + drained
      for (auto& p : q.collect(model, 4,
                               ServeClock::now() +
                                   std::chrono::microseconds(200))) {
        InferResponse r;
        r.status = ServeStatus::kOk;
        p.promise.set_value(std::move(r));
      }
    }
  });

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        PendingRequest p;
        p.request.model = "m" + std::to_string(i % 3);
        const int kind = (t + i) % 3;
        if (kind == 0)
          p.request.deadline = ServeClock::now() - std::chrono::seconds(1);
        else if (kind == 1)
          p.request.deadline =
              ServeClock::now() + std::chrono::microseconds(50 * (i % 7));
        p.enqueued = ServeClock::now();
        const std::size_t slot =
            static_cast<std::size_t>(t * kPerProducer + i);
        futs[slot] = p.promise.get_future();
        switch (q.push(std::move(p))) {
          case ShardedRequestQueue::Admit::kOk:
            ++accepted;
            break;
          case ShardedRequestQueue::Admit::kFull:
          case ShardedRequestQueue::Admit::kQuota:
          case ShardedRequestQueue::Admit::kClosed: {
            InferResponse r;
            r.status = ServeStatus::kRejected;
            p.promise.set_value(std::move(r));
            break;
          }
        }
        EXPECT_LE(q.depth(), kCapacity);
      }
    });
  }
  // Close mid-stream: producers racing the close must get kClosed (their
  // own completion), never a hang or a double-set.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : producers) t.join();
  consumer_stop = true;
  consumer.join();

  // The queue is closed; whatever remains resolves via drain (the server's
  // shutdown path).
  std::size_t drained = 0;
  for (auto& p : q.drain()) {
    InferResponse r;
    r.status = ServeStatus::kShutdown;
    p.promise.set_value(std::move(r));
    ++drained;
  }

  std::size_t ok = 0, rejected = 0, expired = 0, shutdown = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    switch (f.get().status) {
      case ServeStatus::kOk: ++ok; break;
      case ServeStatus::kRejected: ++rejected; break;
      case ServeStatus::kDeadlineExceeded: ++expired; break;
      case ServeStatus::kShutdown: ++shutdown; break;
      default: FAIL() << "unexpected status";
    }
  }
  // Conservation: every request resolved with exactly one of the four
  // outcomes, and the queue-reported expiry count matches the futures.
  EXPECT_EQ(ok + rejected + expired + shutdown, futs.size());
  EXPECT_EQ(accepted.load(), ok + expired + drained);
  EXPECT_EQ(expired_reported.load(), expired);
  EXPECT_EQ(shutdown, drained);
}

}  // namespace
}  // namespace convbound
