// Tests for the obs tracing/metrics registry (src/obs) and its integration
// with the serving stack: ring semantics, concurrent record/drain, the
// Chrome trace and Prometheus text exports, and the per-stage latency
// accounting identity on a live server.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "convbound/obs/trace.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/serve/obs_export.hpp"
#include "convbound/serve/server.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

TraceEvent instant_at(double ts_us, std::uint64_t rid) {
  TraceEvent e;
  e.ts_us = ts_us;
  e.request_id = rid;
  e.phase = TracePhase::kInstant;
  e.stage = TraceStage::kAdmit;
  return e;
}

// ------------------------------------------------------------- ring ----

TEST(TraceRecorder, RingWraparoundKeepsNewest) {
  ObsRegistry reg(/*ring_capacity=*/4);
  TraceRecorder& r = reg.create_recorder();
  for (std::uint64_t i = 0; i < 10; ++i)
    r.record(instant_at(static_cast<double>(i), i));
  EXPECT_EQ(r.recorded(), 10u);
  EXPECT_EQ(r.capacity(), 4u);
  const std::vector<TraceEvent> kept = r.events();
  ASSERT_EQ(kept.size(), 4u);
  // Oldest-first, and exactly the newest window survives the overwrites.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].request_id, 6u + i);
    EXPECT_EQ(kept[i].tid, r.id());
  }
}

TEST(TraceRecorder, PartiallyFilledRingReturnsInOrder) {
  ObsRegistry reg(/*ring_capacity=*/8);
  TraceRecorder& r = reg.create_recorder();
  for (std::uint64_t i = 0; i < 3; ++i)
    r.record(instant_at(static_cast<double>(i), i));
  const std::vector<TraceEvent> kept = r.events();
  ASSERT_EQ(kept.size(), 3u);
  for (std::size_t i = 0; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].request_id, i);
}

TEST(ObsRegistry, EventsSortedAcrossRecorders) {
  ObsRegistry reg(/*ring_capacity=*/16);
  TraceRecorder& a = reg.create_recorder();
  TraceRecorder& b = reg.create_recorder();
  a.record(instant_at(3.0, 3));
  b.record(instant_at(1.0, 1));
  a.record(instant_at(4.0, 4));
  b.record(instant_at(2.0, 2));
  const std::vector<TraceEvent> all = reg.events();
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].request_id, i + 1);
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(reg.num_recorders(), 2u);
}

// Threads record while the main thread repeatedly drains: every event is
// observed exactly once (no loss below ring capacity, no duplication), and
// TSan sees no races between the record and drain paths.
TEST(ObsRegistry, ConcurrentRecordersConsistentDrain) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  // Capacity holds every event, so the only way the count can come out
  // right is if record/drain interleave without losing or double-reading.
  ObsRegistry reg(/*ring_capacity=*/kThreads * kPerThread);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<TraceRecorder*> recorders(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t)
    recorders[t] = &reg.create_recorder();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        recorders[t]->record(instant_at(
            static_cast<double>(i),
            static_cast<std::uint64_t>(t) * kPerThread + i + 1));
    });
  }
  go.store(true);
  std::vector<TraceEvent> seen;
  // Drain concurrently with the writers, then once more after the join to
  // sweep the tail.
  for (int spin = 0; spin < 50; ++spin) {
    for (const TraceEvent& e : reg.drain()) seen.push_back(e);
    std::this_thread::yield();
  }
  for (auto& th : threads) th.join();
  for (const TraceEvent& e : reg.drain()) seen.push_back(e);

  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  std::vector<bool> hit(kThreads * kPerThread + 1, false);
  for (const TraceEvent& e : seen) {
    ASSERT_GE(e.request_id, 1u);
    ASSERT_LE(e.request_id, static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_FALSE(hit[e.request_id]) << "event drained twice";
    hit[e.request_id] = true;
  }
}

// ------------------------------------------------- chrome trace JSON ----

// Minimal JSON scanner for the trace round-trip test: extracts the array
// of event objects and a few typed fields without a JSON dependency.
struct MiniEvent {
  std::string name;
  std::string ph;
  double ts = -1;
  double dur = -1;
  std::uint64_t request_id = 0;
  int pid = -1;
};

std::string field_str(const std::string& obj, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const std::size_t at = obj.find(pat);
  if (at == std::string::npos) return {};
  const std::size_t start = at + pat.size();
  return obj.substr(start, obj.find('"', start) - start);
}

double field_num(const std::string& obj, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  std::size_t at = 0;
  // Skip matches inside nested objects (args) by scanning top level only:
  // fine here because our keys are unique per event object.
  at = obj.find(pat);
  if (at == std::string::npos) return -1;
  return std::stod(obj.substr(at + pat.size()));
}

std::vector<MiniEvent> parse_trace(const std::string& json) {
  const std::size_t arr = json.find("\"traceEvents\":[");
  EXPECT_NE(arr, std::string::npos);
  std::vector<MiniEvent> out;
  std::size_t pos = arr;
  int depth = 0;
  std::size_t obj_start = 0;
  for (std::size_t i = json.find('[', arr) + 1; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      if (depth == 0) obj_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        const std::string obj = json.substr(obj_start, i - obj_start + 1);
        MiniEvent e;
        e.name = field_str(obj, "name");
        e.ph = field_str(obj, "ph");
        e.ts = field_num(obj, "ts");
        e.dur = field_num(obj, "dur");
        e.pid = static_cast<int>(field_num(obj, "pid"));
        const double rid = field_num(obj, "request_id");
        e.request_id = rid < 0 ? 0 : static_cast<std::uint64_t>(rid);
        out.push_back(std::move(e));
      }
    } else if (c == ']' && depth == 0) {
      break;
    }
    (void)pos;
  }
  return out;
}

TEST(ObsRegistry, ChromeTraceRoundTrip) {
  ObsRegistry reg(/*ring_capacity=*/32);
  TraceRecorder& r = reg.create_recorder();
  TraceEvent span;
  span.ts_us = 100.25;
  span.dur_us = 50.5;
  span.request_id = 7;
  span.batch_id = 3;
  span.device = 1;
  span.phase = TracePhase::kSpan;
  span.stage = TraceStage::kExecute;
  r.record(span);
  r.record(instant_at(200.0, 8));

  const std::string json = reg.chrome_trace_json();
  const std::vector<MiniEvent> events = parse_trace(json);
  // Two real events + process_name metadata for each distinct pid.
  std::map<std::string, int> by_name;
  for (const MiniEvent& e : events) ++by_name[e.name];
  EXPECT_EQ(by_name["execute"], 1);
  EXPECT_EQ(by_name["admit"], 1);
  EXPECT_GE(by_name["process_name"], 2);  // front door + device 1

  for (const MiniEvent& e : events) {
    if (e.name == "execute") {
      EXPECT_EQ(e.ph, "X");
      EXPECT_NEAR(e.ts, 100.25, 1e-6);
      EXPECT_NEAR(e.dur, 50.5, 1e-6);
      EXPECT_EQ(e.request_id, 7u);
      EXPECT_EQ(e.pid, 2);  // device 1 -> pid 2 (pid 0 = front door)
    } else if (e.name == "admit") {
      EXPECT_EQ(e.ph, "i");
      EXPECT_EQ(e.request_id, 8u);
      EXPECT_EQ(e.pid, 0);
    }
  }
}

// --------------------------------------------------------- metrics ----

TEST(ObsRegistry, MetricsTextParses) {
  ObsRegistry reg;
  reg.set_counter("convbound_test_total", "job=\"t\"", 42,
                  "A test counter.");
  reg.set_gauge("convbound_test_gauge", "", 2.5);
  LatencyHistogram h;
  h.record(0.001);
  h.record(0.010);
  h.record(0.010);
  reg.set_histogram("convbound_test_seconds", "job=\"t\"", h);

  const std::string text = reg.metrics_text();
  EXPECT_NE(text.find("# TYPE convbound_test_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP convbound_test_total A test counter."),
            std::string::npos);
  EXPECT_NE(text.find("convbound_test_total{job=\"t\"} 42"),
            std::string::npos);
  EXPECT_NE(text.find("convbound_test_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE convbound_test_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("convbound_test_seconds_count{job=\"t\"} 3"),
            std::string::npos);
  EXPECT_NE(
      text.find("convbound_test_seconds_bucket{job=\"t\",le=\"+Inf\"} 3"),
      std::string::npos);

  // Structural sanity pass over every line: comments, or name{labels} value.
  std::size_t samples = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(sp + 1))) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(line[0]))) << line;
    ++samples;
  }
  EXPECT_GE(samples, 5u);

  // Cumulative bucket counts must be non-decreasing and end at _count.
  std::uint64_t prev = 0;
  bool saw_bucket = false;
  start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("convbound_test_seconds_bucket", 0) != 0) continue;
    saw_bucket = true;
    const std::uint64_t v = static_cast<std::uint64_t>(
        std::stoull(line.substr(line.rfind(' ') + 1)));
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_TRUE(saw_bucket);
  EXPECT_EQ(prev, 3u);
}

TEST(ObsRegistry, PublishSnapshotExportsServingMetrics) {
  ObsRegistry reg;
  StatsSnapshot s;
  s.submitted = 10;
  s.completed = 7;
  s.rejected = 2;
  s.quota_rejected = 1;
  s.shutdown_rejected = 3;
  s.queue_depth = 5;
  s.shard_depths = {2, 3};
  s.shard_max_depths = {4, 6};
  s.shard_imbalance = 1.2;
  s.latency.record(0.005);
  s.queue_wait.record(0.002);
  s.batch_delay.record(0.001);
  s.exec.record(0.002);
  RequestCounts& cls = s.classes["paid"];
  cls.submitted = 4;
  cls.shutdown_rejected = 1;
  publish_snapshot(reg, "job=\"test\"", s);
  const std::string text = reg.metrics_text();
  EXPECT_NE(text.find("convbound_requests_submitted_total{job=\"test\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("convbound_requests_shed_total{job=\"test\","
                      "reason=\"full\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("convbound_requests_shed_total{job=\"test\","
                      "reason=\"shutdown\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("convbound_shard_depth{job=\"test\",shard=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("convbound_stage_queue_wait_seconds_count"
                      "{job=\"test\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("convbound_class_requests_shed_total{job=\"test\","
                "class=\"paid\",reason=\"shutdown\"} 1"),
      std::string::npos);
}

// A snapshot with every exported field set, two tenant classes included.
StatsSnapshot every_field_snapshot() {
  StatsSnapshot s;
  s.submitted = 40;
  s.completed = 21;
  s.rejected = 5;
  s.quota_rejected = 4;
  s.shutdown_rejected = 3;
  s.expired = 6;
  s.failed = 1;
  s.batches = 9;
  s.throughput_rps = 125.5;
  s.modelled_rps = 4000.25;
  s.mean_batch_size = 2.5;
  s.queue_depth = 7;
  s.max_queue_depth = 11;
  s.shard_depths = {3, 4};
  s.shard_max_depths = {5, 6};
  s.shard_imbalance = 1.0909;
  for (double v : {0.004, 0.009, 0.03}) s.latency.record(v);
  for (double v : {0.001, 0.002}) s.queue_wait.record(v);
  s.batch_delay.record(0.0005);
  for (double v : {0.002, 0.006}) s.exec.record(v);
  auto& paid = s.classes["paid"];
  paid.submitted = 25;
  paid.completed = 15;
  paid.rejected = 2;
  paid.quota_rejected = 0;
  paid.shutdown_rejected = 3;
  paid.expired = 5;
  paid.latency.record(0.004);
  paid.latency.record(0.03);
  paid.queue_wait.record(0.001);
  paid.batch_delay.record(0.0005);
  paid.exec.record(0.002);
  auto& free = s.classes["free"];
  free.submitted = 15;
  free.completed = 6;
  free.rejected = 3;
  free.quota_rejected = 4;
  free.expired = 1;
  free.latency.record(0.009);
  return s;
}

// Pins the exposition: every series below (name, labels, value) is what
// publish_snapshot rendered for every_field_snapshot() before the total
// and the class slices shared one renderer. Series may be added; none of
// these may change or disappear.
TEST(ObsRegistry, PublishSnapshotKeepsEverySeries) {
  const char* const kSeries[] = {
      "convbound_batches_total{job=\"g\"} 9",
      "convbound_class_request_latency_seconds_bucket{job=\"g\",class=\"free\",le=\"0.00917062481\"} 1",
      "convbound_class_request_latency_seconds_bucket{job=\"g\",class=\"free\",le=\"+Inf\"} 1",
      "convbound_class_request_latency_seconds_sum{job=\"g\",class=\"free\"} 0.009",
      "convbound_class_request_latency_seconds_count{job=\"g\",class=\"free\"} 1",
      "convbound_class_request_latency_seconds_bucket{job=\"g\",class=\"paid\",le=\"0.00400111323\"} 1",
      "convbound_class_request_latency_seconds_bucket{job=\"g\",class=\"paid\",le=\"0.0310549907\"} 2",
      "convbound_class_request_latency_seconds_bucket{job=\"g\",class=\"paid\",le=\"+Inf\"} 2",
      "convbound_class_request_latency_seconds_sum{job=\"g\",class=\"paid\"} 0.034",
      "convbound_class_request_latency_seconds_count{job=\"g\",class=\"paid\"} 2",
      "convbound_class_requests_completed_total{job=\"g\",class=\"free\"} 6",
      "convbound_class_requests_completed_total{job=\"g\",class=\"paid\"} 15",
      "convbound_class_requests_expired_total{job=\"g\",class=\"free\"} 1",
      "convbound_class_requests_expired_total{job=\"g\",class=\"paid\"} 5",
      "convbound_class_requests_shed_total{job=\"g\",class=\"free\",reason=\"full\"} 3",
      "convbound_class_requests_shed_total{job=\"g\",class=\"free\",reason=\"quota\"} 4",
      "convbound_class_requests_shed_total{job=\"g\",class=\"free\",reason=\"shutdown\"} 0",
      "convbound_class_requests_shed_total{job=\"g\",class=\"paid\",reason=\"full\"} 2",
      "convbound_class_requests_shed_total{job=\"g\",class=\"paid\",reason=\"quota\"} 0",
      "convbound_class_requests_shed_total{job=\"g\",class=\"paid\",reason=\"shutdown\"} 3",
      "convbound_class_requests_submitted_total{job=\"g\",class=\"free\"} 15",
      "convbound_class_requests_submitted_total{job=\"g\",class=\"paid\"} 25",
      "convbound_mean_batch_size{job=\"g\"} 2.5",
      "convbound_modelled_rps{job=\"g\"} 4000.25",
      "convbound_queue_depth{job=\"g\"} 7",
      "convbound_queue_depth_max{job=\"g\"} 11",
      "convbound_request_latency_seconds_bucket{job=\"g\",le=\"0.00400111323\"} 1",
      "convbound_request_latency_seconds_bucket{job=\"g\",le=\"0.00917062481\"} 2",
      "convbound_request_latency_seconds_bucket{job=\"g\",le=\"0.0310549907\"} 3",
      "convbound_request_latency_seconds_bucket{job=\"g\",le=\"+Inf\"} 3",
      "convbound_request_latency_seconds_sum{job=\"g\"} 0.043",
      "convbound_request_latency_seconds_count{job=\"g\"} 3",
      "convbound_requests_completed_total{job=\"g\"} 21",
      "convbound_requests_expired_total{job=\"g\"} 6",
      "convbound_requests_failed_total{job=\"g\"} 1",
      "convbound_requests_shed_total{job=\"g\",reason=\"full\"} 5",
      "convbound_requests_shed_total{job=\"g\",reason=\"quota\"} 4",
      "convbound_requests_shed_total{job=\"g\",reason=\"shutdown\"} 3",
      "convbound_requests_submitted_total{job=\"g\"} 40",
      "convbound_shard_depth{job=\"g\",shard=\"0\"} 3",
      "convbound_shard_depth{job=\"g\",shard=\"1\"} 4",
      "convbound_shard_depth_max{job=\"g\",shard=\"0\"} 5",
      "convbound_shard_depth_max{job=\"g\",shard=\"1\"} 6",
      "convbound_shard_imbalance{job=\"g\"} 1.0909",
      "convbound_stage_batch_delay_seconds_bucket{job=\"g\",le=\"0.000515501913\"} 1",
      "convbound_stage_batch_delay_seconds_bucket{job=\"g\",le=\"+Inf\"} 1",
      "convbound_stage_batch_delay_seconds_sum{job=\"g\"} 0.0005",
      "convbound_stage_batch_delay_seconds_count{job=\"g\"} 1",
      "convbound_stage_exec_seconds_bucket{job=\"g\",le=\"0.00202083407\"} 1",
      "convbound_stage_exec_seconds_bucket{job=\"g\",le=\"0.00620703985\"} 2",
      "convbound_stage_exec_seconds_bucket{job=\"g\",le=\"+Inf\"} 2",
      "convbound_stage_exec_seconds_sum{job=\"g\"} 0.008",
      "convbound_stage_exec_seconds_count{job=\"g\"} 2",
      "convbound_stage_queue_wait_seconds_bucket{job=\"g\",le=\"0.00102065853\"} 1",
      "convbound_stage_queue_wait_seconds_bucket{job=\"g\",le=\"0.00202083407\"} 2",
      "convbound_stage_queue_wait_seconds_bucket{job=\"g\",le=\"+Inf\"} 2",
      "convbound_stage_queue_wait_seconds_sum{job=\"g\"} 0.003",
      "convbound_stage_queue_wait_seconds_count{job=\"g\"} 2",
      "convbound_throughput_rps{job=\"g\"} 125.5",
  };
  ObsRegistry reg;
  publish_snapshot(reg, "job=\"g\"", every_field_snapshot());
  const std::string text = "\n" + reg.metrics_text();
  for (const char* series : kSeries) {
    std::string line = "\n";
    line += series;
    line += '\n';
    EXPECT_NE(text.find(line), std::string::npos) << series;
  }
}

// ------------------------------------------- live-server integration ----

ServedModel one_tiny_model() {
  Rng rng(20260808);
  std::vector<ConvLayer> layers;
  for (int l = 0; l < 2; ++l) {
    ConvShape s;
    s.cin = 2 * rng.range(1, 3);
    s.cout = 2 * rng.range(1, 3);
    s.hin = s.win = rng.range(8, 12);
    s.kh = s.kw = 3;
    s.stride = 1;
    s.pad = 1;
    s.validate();
    layers.push_back({"l" + std::to_string(l), s});
  }
  return make_served_model("tiny", layers, {});
}

// A saturated 1-worker server: stage histograms must satisfy the exact
// accounting identity sum(queue_wait) + sum(batch_delay) + sum(exec) ==
// sum(latency), because the engine computes the stages from the very
// timestamps the end-to-end latency uses.
TEST(ObsServe, StageAccountingIdentity) {
  std::vector<ServedModel> models = {one_tiny_model()};
  ServerOptions opts;
  opts.workers = 1;
  opts.max_delay = std::chrono::microseconds(500);
  opts.batch_policy.max_bucket = 4;
  InferenceServer server(models, opts);
  server.start();

  constexpr int kRequests = 48;
  std::vector<std::future<InferResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(
        {"tiny", make_request_input(models[0], 100u + i)}));
  for (auto& f : futures)
    EXPECT_EQ(f.get().status, ServeStatus::kOk);

  const StatsSnapshot s = server.stats();
  server.stop();

  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.latency.count(), static_cast<std::uint64_t>(kRequests));
  // Every completion contributes to every stage histogram.
  EXPECT_EQ(s.queue_wait.count(), s.latency.count());
  EXPECT_EQ(s.batch_delay.count(), s.latency.count());
  EXPECT_EQ(s.exec.count(), s.latency.count());
  // The identity: stage sums add up to the end-to-end sum (fp rounding).
  const double stage_sum =
      s.queue_wait.sum() + s.batch_delay.sum() + s.exec.sum();
  EXPECT_NEAR(stage_sum, s.latency.sum(),
              1e-9 * static_cast<double>(kRequests) + 1e-12);
  // A saturated 1-worker server queues: queue_wait is a real share.
  EXPECT_GT(s.queue_wait.sum(), 0.0);
  EXPECT_GT(s.exec.sum(), 0.0);
  // Derived stage percentiles came out of fill_latency_fields.
  EXPECT_GT(s.exec_p99, 0.0);
}

// With tracing enabled, a served load leaves a correlated event record:
// every completed request has an admit instant, a queue_wait span, and a
// complete instant under the same request id; batch events carry batch
// ids the per-request events reference.
TEST(ObsServe, TracedLoadIsCorrelated) {
  ObsRegistry::global().clear();
  ObsRegistry::set_enabled(true);
  std::vector<ServedModel> models = {one_tiny_model()};
  ServerOptions opts;
  opts.workers = 1;
  opts.batch_policy.max_bucket = 4;
  InferenceServer server(models, opts);
  server.start();
  constexpr int kRequests = 16;
  std::vector<std::future<InferResponse>> futures;
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(
        {"tiny", make_request_input(models[0], 300u + i)}));
  for (auto& f : futures)
    EXPECT_EQ(f.get().status, ServeStatus::kOk);
  server.stop();
  ObsRegistry::set_enabled(false);
  const std::vector<TraceEvent> events = ObsRegistry::global().drain();

  std::map<TraceStage, std::vector<const TraceEvent*>> by_stage;
  for (const TraceEvent& e : events) by_stage[e.stage].push_back(&e);
  ASSERT_GE(by_stage[TraceStage::kAdmit].size(),
            static_cast<std::size_t>(kRequests));
  ASSERT_GE(by_stage[TraceStage::kComplete].size(),
            static_cast<std::size_t>(kRequests));
  EXPECT_GE(by_stage[TraceStage::kExecute].size(), 1u);
  EXPECT_GE(by_stage[TraceStage::kLayerExec].size(),
            by_stage[TraceStage::kExecute].size());

  std::map<std::uint64_t, int> admit_ids;
  for (const TraceEvent* e : by_stage[TraceStage::kAdmit]) {
    EXPECT_GT(e->request_id, 0u);
    ++admit_ids[e->request_id];
  }
  std::set<std::uint64_t> batch_ids;
  for (const TraceEvent* e : by_stage[TraceStage::kBatchForm]) {
    EXPECT_GT(e->batch_id, 0u);
    batch_ids.insert(e->batch_id);
  }
  for (const TraceEvent* e : by_stage[TraceStage::kComplete]) {
    // Every completion's request id was admitted exactly once, and its
    // batch id belongs to a formed batch.
    EXPECT_EQ(admit_ids[e->request_id], 1);
    EXPECT_TRUE(batch_ids.count(e->batch_id) == 1) << e->batch_id;
    EXPECT_GT(e->value, 0.0);  // completion carries the latency
  }
  for (const TraceEvent* e : by_stage[TraceStage::kQueueWait]) {
    EXPECT_EQ(admit_ids[e->request_id], 1);
    EXPECT_GE(e->dur_us, 0.0);
  }
}

// Warm-up traces only real work: planning counts its candidates and
// executes none, so the one throwaway pass each warm session runs is the
// only execution, and each leaves one layer_exec span per layer.
TEST(ObsServe, WarmupTracesOneLayerExecPerSessionLayer) {
  ObsRegistry::global().clear();
  ObsRegistry::set_enabled(true);
  std::vector<ServedModel> models = {one_tiny_model()};
  ServerOptions opts;
  opts.workers = 1;
  opts.replicas = 2;
  opts.force_bucket = 4;
  ClusterServer cluster(models, opts.cluster_options());
  cluster.start();  // warms every session; no request is submitted
  ObsRegistry::set_enabled(false);
  const std::size_t sessions =
      cluster.device(0).engine().exec_buckets("tiny").size() *
      static_cast<std::size_t>(opts.replicas);
  cluster.stop();
  std::size_t layer_execs = 0;
  for (const TraceEvent& e : ObsRegistry::global().drain())
    layer_execs += e.stage == TraceStage::kLayerExec ? 1 : 0;
  EXPECT_EQ(sessions, 6u);  // buckets 1, 2, 4 x 2 replicas
  EXPECT_EQ(layer_execs, sessions * models[0].layers.size());
}

}  // namespace
}  // namespace convbound
