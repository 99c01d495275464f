// Cluster chaos + tenancy: the robustness scenario matrix.
//
// Three scenarios on the same heterogeneous fleet, each resolving every
// submitted future (zero silent loss is a gated invariant, not a hope):
//
//  1. overload-mixed: 2x the fleet queue capacity submitted as a mixed
//     tenant workload — "paid" (latency budget, quota weight 3) at ~0.6x
//     capacity and "free" (no budget, weight 1) at ~1.4x. Weighted-fair
//     admission sheds the overload onto the free class (kQuotaExceeded at
//     the front door) while EDF drains the budget-bearing paid requests
//     first; the gates pin paid p99 under its budget, paid expiries at
//     zero, and the rejections onto the free class.
//
//  2. device-loss: a saturating prefill, then a device is killed ~5 ms into
//     the drain. Its stranded groups re-enter the front queue and the
//     survivors absorb them through the Router's steal path — every request
//     still completes kOk.
//
//  3. hot-join (warm and cold): the fleet serves a fixed burst on two
//     devices, a third joins (kWarm: surviving engine; kCold: rebuilt and
//     re-warmed from scratch), and the same burst runs again. Per-phase
//     modelled rps comes from the *deltas* of per-device sim_seconds
//     (makespan semantics: burst size / busiest device's added simulated
//     seconds), so the gain ratio isolates what the join bought. The gate
//     demands gain > 1 for both revive modes, and the cold join must reach
//     the same zero-plan-miss steady state as a fleet start.
//
// The request-input RNG seed is fixed (override: CONVBOUND_BENCH_SEED) and
// recorded in BENCH_cluster_chaos.json. CONVBOUND_SERVE_SMOKE=1 shrinks
// shapes and request counts for CI smoke runs.
#include "bench_util.hpp"

#include <chrono>
#include <future>
#include <thread>

namespace convbound::bench {
namespace {

bool smoke() { return serve_smoke(); }
std::uint64_t seed_base() { return bench_seed(20260808ull); }

constexpr int kDeviceWorkers = 2;
// The paid budget's clock starts at submit, and the overload scenario
// prefills before start() for deterministic admission — so fleet warm time
// counts against it. Sanitizer builds (the TSan CI job smokes this bench)
// run warm ~10-20x slower; widen the budget there so the scenario still
// exercises paid completions instead of expiring the whole class.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CONVBOUND_CHAOS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CONVBOUND_CHAOS_SANITIZED 1
#endif
#endif
/// Paid-class latency budget (seconds). Same at both scales so the gate's
/// absolute ceiling is scale-independent; EDF keeps the actual paid tail
/// one to two orders of magnitude below it.
#ifdef CONVBOUND_CHAOS_SANITIZED
constexpr double kPaidBudgetSeconds = 120.0;
#else
constexpr double kPaidBudgetSeconds = 4.0;
#endif

int overload_capacity() { return smoke() ? 48 : 160; }
int loss_requests() { return smoke() ? 60 : 180; }
int burst_requests() { return smoke() ? 36 : 120; }

// Same two cost-model corners as cluster_scaling: a compute-bound model the
// dense spec wins and a bandwidth-bound model the HBM spec wins, so chaos
// placement decisions stay heterogeneous.
ServedModel compute_model() {
  ConvShape s;
  s.cin = s.cout = 48;
  s.hin = s.win = smoke() ? 15 : 19;
  s.kh = s.kw = 5;
  s.stride = 2;
  s.pad = 2;
  s.validate();
  return make_served_model("compute", {{"c0", s}}, {});
}

ServedModel wide_model() {
  ConvShape s;
  s.cin = s.cout = 16;
  s.hin = s.win = smoke() ? 64 : 128;
  s.kh = s.kw = 1;
  s.pad = 0;
  s.validate();
  return make_served_model("wide", {{"w0", s}}, {});
}

DeviceConfig device_of(const MachineSpec& spec, int pending_cap) {
  DeviceConfig d;
  d.spec = spec;
  d.workers = kDeviceWorkers;
  d.max_pending_groups = pending_cap;
  return d;
}

ClusterOptions fleet_options(int pending_cap, std::size_t max_queue) {
  ClusterOptions opts;
  opts.devices = {
      device_of(MachineSpec::v100(), pending_cap),
      device_of(MachineSpec::bandwidth_optimized(), pending_cap),
      device_of(MachineSpec::compute_optimized(), pending_cap)};
  opts.max_queue = max_queue;
  opts.max_delay = std::chrono::microseconds(2000);
  opts.batch_policy.max_bucket = 4;
  return opts;
}

struct StatusCounts {
  std::uint64_t ok = 0, rejected = 0, quota = 0, expired = 0, shutdown = 0;
  std::uint64_t lost = 0;  ///< resolved to anything outside the above
  void count(ServeStatus s) {
    switch (s) {
      case ServeStatus::kOk: ++ok; return;
      case ServeStatus::kRejected: ++rejected; return;
      case ServeStatus::kQuotaExceeded: ++quota; return;
      case ServeStatus::kDeadlineExceeded: ++expired; return;
      case ServeStatus::kShutdown: ++shutdown; return;
      default: ++lost; return;
    }
  }
};

// ------------------------------------------------ 1. overload-mixed ----

struct OverloadResult {
  StatusCounts statuses;
  std::uint64_t paid_submitted = 0, free_submitted = 0;
  std::uint64_t paid_completed = 0, free_completed = 0;
  std::uint64_t paid_quota_rejected = 0, free_quota_rejected = 0;
  std::uint64_t paid_expired = 0, free_expired = 0;
  double paid_p50_ms = 0, paid_p99_ms = 0;
  double free_p50_ms = 0, free_p99_ms = 0;
};

OverloadResult run_overload() {
  std::vector<ServedModel> models;
  models.push_back(wide_model());

  const int capacity = overload_capacity();
  ClusterOptions opts =
      fleet_options(capacity, static_cast<std::size_t>(capacity));
  opts.admission_congestion = 0.5;
  // First class is the catch-all default; both tenants are named explicitly
  // so the order only decides who absorbs unknown names.
  opts.classes = {TenantClass{"paid", kPaidBudgetSeconds, 3.0},
                  TenantClass{"free", 0, 1.0}};
  ClusterServer cluster(models, opts);

  // 2x overload, prefilled in a fixed interleaving (3 paid per 10 submits)
  // so admission outcomes are a deterministic function of the sequence:
  // paid lands ~0.6x capacity, free ~1.4x.
  const std::uint64_t seed = seed_base();
  OverloadResult r;
  std::vector<std::future<InferResponse>> futures;
  for (int i = 0; i < 2 * capacity; ++i) {
    const ServedModel& m = models[0];
    InferRequest req{m.name, make_request_input(m, seed + i)};
    const bool paid = i % 10 < 3;
    req.tenant = paid ? "paid" : "free";
    ++(paid ? r.paid_submitted : r.free_submitted);
    futures.push_back(cluster.submit(std::move(req)));
  }
  cluster.start();
  for (auto& f : futures) r.statuses.count(f.get().status);

  const ClusterSnapshot s = cluster.stats();
  cluster.stop();
  const auto paid_it = s.fleet.classes.find("paid");
  const auto free_it = s.fleet.classes.find("free");
  CB_CHECK_MSG(paid_it != s.fleet.classes.end() &&
                   free_it != s.fleet.classes.end(),
               "overload run missing per-class stats");
  r.paid_completed = paid_it->second.completed;
  r.paid_quota_rejected = paid_it->second.quota_rejected;
  r.paid_expired = paid_it->second.expired;
  r.paid_p50_ms = paid_it->second.latency.quantile(0.50) * 1e3;
  r.paid_p99_ms = paid_it->second.latency.quantile(0.99) * 1e3;
  r.free_completed = free_it->second.completed;
  r.free_quota_rejected = free_it->second.quota_rejected;
  r.free_expired = free_it->second.expired;
  r.free_p50_ms = free_it->second.latency.quantile(0.50) * 1e3;
  r.free_p99_ms = free_it->second.latency.quantile(0.99) * 1e3;
  return r;
}

// -------------------------------------------------- 2. device-loss ----

struct LossResult {
  StatusCounts statuses;
  std::uint64_t requeued = 0, stolen = 0, completed = 0;
};

LossResult run_device_loss() {
  std::vector<ServedModel> models;
  models.push_back(compute_model());
  models.push_back(wide_model());

  const int n = loss_requests();
  ClusterOptions opts = fleet_options(n, static_cast<std::size_t>(n));
  ClusterServer cluster(models, opts);

  const std::uint64_t seed = seed_base() + 1000;
  std::vector<std::future<InferResponse>> futures;
  for (int i = 0; i < n; ++i) {
    const ServedModel& m = models[static_cast<std::size_t>(i) % models.size()];
    futures.push_back(
        cluster.submit({m.name, make_request_input(m, seed + i)}));
  }
  cluster.start();
  // Kill a device while the drain is hot. The exact number of stranded
  // groups depends on host timing; what is gated is that none of their
  // requests are lost.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  LossResult r;
  r.requeued = cluster.fail_device(0);
  for (auto& f : futures) r.statuses.count(f.get().status);

  const ClusterSnapshot s = cluster.stats();
  cluster.stop();
  r.stolen = s.stolen_groups;
  r.completed = s.fleet.completed;
  CB_CHECK_MSG(s.device_failures == 1, "expected exactly one failure");
  return r;
}

// ----------------------------------------- 3. hot-join (warm / cold) ----

struct JoinResult {
  std::string mode;
  StatusCounts statuses;
  double degraded_rps = 0;  ///< 2-device phase, makespan over sim deltas
  double joined_rps = 0;    ///< 3-device phase after the revive
  double rps_gain = 0;      ///< joined / degraded (gate: > 1)
  std::uint64_t plan_misses = 0;
};

std::vector<double> device_sim_seconds(const ClusterSnapshot& s) {
  std::vector<double> sim;
  for (const DeviceSnapshot& d : s.devices) sim.push_back(d.stats.sim_seconds);
  return sim;
}

double phase_modelled_rps(int completed, const std::vector<double>& before,
                          const std::vector<double>& after) {
  double busiest = 0;
  for (std::size_t i = 0; i < after.size(); ++i)
    busiest = std::max(busiest, after[i] - before[i]);
  return busiest > 0 ? completed / busiest : 0;
}

JoinResult run_hot_join(ReviveMode mode) {
  std::vector<ServedModel> models;
  models.push_back(compute_model());
  models.push_back(wide_model());

  const int n = burst_requests();
  ClusterOptions opts = fleet_options(n, static_cast<std::size_t>(2 * n));
  ClusterServer cluster(models, opts);
  cluster.start();

  JoinResult r;
  r.mode = mode == ReviveMode::kWarm ? "warm" : "cold";
  const std::uint64_t seed = seed_base() + 2000;
  const auto burst = [&](std::uint64_t phase_seed) {
    std::vector<std::future<InferResponse>> futures;
    for (int i = 0; i < n; ++i) {
      const ServedModel& m =
          models[static_cast<std::size_t>(i) % models.size()];
      futures.push_back(
          cluster.submit({m.name, make_request_input(m, phase_seed + i)}));
    }
    for (auto& f : futures) r.statuses.count(f.get().status);
  };

  // Degraded phase: the fleet loses its third device before any load, so
  // the two survivors carry the whole burst.
  cluster.fail_device(2);
  const std::vector<double> sim0 = device_sim_seconds(cluster.stats());
  burst(seed);
  const std::vector<double> sim1 = device_sim_seconds(cluster.stats());

  // Hot-join. The Router's virtual clock deliberately never drains, so the
  // joiner enters far behind the survivors and absorbs a catch-up transient
  // (it takes most groups until its clock levels — correct balancing, but a
  // one-device makespan). An unmeasured settle burst carries that
  // transient; the measured phase is the steady state the join bought.
  cluster.revive_device(2, mode);
  burst(seed + static_cast<std::uint64_t>(n));
  const std::vector<double> sim2 = device_sim_seconds(cluster.stats());
  burst(seed);
  const std::vector<double> sim3 = device_sim_seconds(cluster.stats());

  const ClusterSnapshot s = cluster.stats();
  cluster.stop();
  r.degraded_rps = phase_modelled_rps(n, sim0, sim1);
  r.joined_rps = phase_modelled_rps(n, sim2, sim3);
  r.rps_gain = r.degraded_rps > 0 ? r.joined_rps / r.degraded_rps : 0;
  for (const DeviceSnapshot& d : s.devices)
    r.plan_misses += d.stats.plan_misses_after_warm;
  return r;
}

// ----------------------------------------------------------- harness ----

OverloadResult g_overload;
LossResult g_loss;
std::vector<JoinResult> g_joins;

void register_all() {
  benchmark::RegisterBenchmark("cluster/chaos", [](benchmark::State& st) {
    for (auto _ : st) {
      g_overload = run_overload();
      g_loss = run_device_loss();
      g_joins.push_back(run_hot_join(ReviveMode::kWarm));
      g_joins.push_back(run_hot_join(ReviveMode::kCold));
    }
  })->Iterations(1)->Unit(benchmark::kSecond);
}

void print_summary() {
  std::printf("\n=== Cluster chaos: tenancy overload, device loss, hot-join "
              "(seed %llu) ===\n",
              static_cast<unsigned long long>(seed_base()));

  Table t({"scenario", "detail", "ok", "quota-rej", "expired",
           "p50 / p99 ms"});
  t.add_row({"overload-mixed", "paid (w3, budget)",
             std::to_string(g_overload.paid_completed), "0",
             std::to_string(g_overload.paid_expired),
             Table::fmt(g_overload.paid_p50_ms, 2) + " / " +
                 Table::fmt(g_overload.paid_p99_ms, 2)});
  t.add_row({"overload-mixed", "free (w1)",
             std::to_string(g_overload.free_completed),
             std::to_string(g_overload.free_quota_rejected),
             std::to_string(g_overload.free_expired),
             Table::fmt(g_overload.free_p50_ms, 2) + " / " +
                 Table::fmt(g_overload.free_p99_ms, 2)});
  t.add_row({"device-loss", "kill d0 @5ms",
             std::to_string(g_loss.statuses.ok), "-", "-",
             "requeued " + std::to_string(g_loss.requeued)});
  for (const JoinResult& j : g_joins)
    t.add_row({"hot-join", j.mode, std::to_string(j.statuses.ok), "-", "-",
               Table::fmt(j.degraded_rps, 0) + " -> " +
                   Table::fmt(j.joined_rps, 0) + " rps (" +
                   Table::fmt(j.rps_gain, 2) + "x)"});
  std::printf("%s", t.to_string().c_str());

  const std::uint64_t lost =
      g_overload.statuses.lost + g_loss.statuses.lost +
      (g_joins.empty()
           ? 0
           : g_joins[0].statuses.lost + g_joins[1].statuses.lost) +
      g_loss.statuses.rejected + g_loss.statuses.shutdown +
      g_loss.statuses.expired;
  std::uint64_t join_plan_misses = 0, join_not_ok = 0;
  for (const JoinResult& j : g_joins) {
    join_plan_misses += j.plan_misses;
    join_not_ok += j.statuses.rejected + j.statuses.quota +
                   j.statuses.expired + j.statuses.shutdown +
                   j.statuses.lost;
  }
  std::printf("\npaid p99 %.2f ms against its %.0f ms budget under 2x "
              "overload; %llu requests lost across every scenario\n",
              g_overload.paid_p99_ms, kPaidBudgetSeconds * 1e3,
              static_cast<unsigned long long>(lost));

  const JsonObject overload_json =
      JsonObject()
          .add("paid_submitted", g_overload.paid_submitted)
          .add("free_submitted", g_overload.free_submitted)
          .add("paid_completed", g_overload.paid_completed)
          .add("free_completed", g_overload.free_completed)
          .add("paid_quota_rejected", g_overload.paid_quota_rejected)
          .add("free_quota_rejected", g_overload.free_quota_rejected)
          .add("paid_expired", g_overload.paid_expired)
          .add("free_expired", g_overload.free_expired)
          .add("paid_p50_ms", g_overload.paid_p50_ms)
          .add("paid_p99_ms", g_overload.paid_p99_ms)
          .add("free_p50_ms", g_overload.free_p50_ms)
          .add("free_p99_ms", g_overload.free_p99_ms);
  const JsonObject loss_json =
      JsonObject()
          .add("requests", loss_requests())
          .add("ok", g_loss.statuses.ok)
          .add("requeued", g_loss.requeued)
          .add("stolen_groups", g_loss.stolen)
          .add("completed", g_loss.completed);
  std::vector<std::string> joins_json;
  for (const JoinResult& j : g_joins)
    joins_json.push_back(JsonObject()
                             .add("mode", j.mode)
                             .add("ok", j.statuses.ok)
                             .add("degraded_rps", j.degraded_rps)
                             .add("joined_rps", j.joined_rps)
                             .add("rps_gain", j.rps_gain)
                             .add("plan_misses", j.plan_misses)
                             .to_string());

  JsonObject out;
  out.add("bench", "cluster_chaos")
      .add("smoke", smoke())
      .add("seed", seed_base())
      .add("paid_budget_ms", kPaidBudgetSeconds * 1e3)
      .add_raw("overload", overload_json.to_string())
      .add_raw("device_loss", loss_json.to_string())
      .add_raw("hot_join", json_array(joins_json))
      // Gated metrics. chaos_lost_requests_total folds in every way a
      // request could silently vanish or wrongly degrade: unknown statuses
      // anywhere, plus any non-kOk outcome in the loss/join scenarios
      // (their loads are within capacity, so everything must serve).
      .add("chaos_lost_requests_total", lost + join_not_ok)
      .add("overload_paid_p99_ms", g_overload.paid_p99_ms)
      .add("overload_paid_expired", g_overload.paid_expired)
      .add("overload_paid_quota_rejected", g_overload.paid_quota_rejected)
      .add("overload_free_quota_rejected", g_overload.free_quota_rejected)
      .add("hotjoin_warm_rps_gain",
           g_joins.empty() ? 0.0 : g_joins[0].rps_gain)
      .add("hotjoin_cold_rps_gain",
           g_joins.empty() ? 0.0 : g_joins[1].rps_gain)
      .add("chaos_plan_misses_after_warm", join_plan_misses);
  write_bench_json("cluster_chaos", out);
}

}  // namespace
}  // namespace convbound::bench

int main(int argc, char** argv) {
  convbound::bench::register_all();
  return convbound::bench::run_all(argc, argv,
                                   convbound::bench::print_summary);
}
