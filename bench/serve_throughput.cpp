// Serving throughput: open-loop load generator sweeping offered load x
// batching policy over (scaled-down) zoo models.
//
// For each (offered rps, policy) cell a fresh server is started, `kRequests`
// requests are injected at fixed inter-arrival times, and the run reports
// achieved wall throughput, the modelled-accelerator throughput (requests
// per simulated GPU second — the machine-model figure of merit), and wall
// latency percentiles. Policies: "batched" (bound-guided bucket per model)
// vs "batch1" (every request its own batch — the unbatched baseline).
//
// The paper-shape claim: at saturating offered load, micro-batching serves
// more requests/sec than batch-size-1 at the same load, because batches
// amortise per-launch overhead and fill the machine's waves; at low load
// batching degrades gracefully to single-request groups (max-delay window).
// Results land in BENCH_serve_throughput.json.
//
// CONVBOUND_SERVE_SMOKE=1 shrinks the sweep for CI smoke runs.
#include "bench_util.hpp"

#include <future>
#include <map>
#include <thread>

#include "convbound/util/timer.hpp"

namespace convbound::bench {
namespace {

bool smoke() { return serve_smoke(); }
std::uint64_t seed_base() { return bench_seed(50000ull); }

constexpr int kWorkers = 2;

std::vector<double> offered_loads() {
  return smoke() ? std::vector<double>{400, 1600}
                 : std::vector<double>{100, 400, 1600};
}
int num_requests() { return smoke() ? 24 : 96; }

std::vector<ServedModel> bench_models() {
  ServedModelOptions scale;
  scale.max_layers = 3;
  scale.channel_cap = 16;
  scale.spatial_cap = 28;
  std::vector<ServedModel> models;
  models.push_back(make_served_model("squeezenet", squeezenet_v10(), scale));
  models.push_back(make_served_model("resnet-18", resnet18(), scale));
  return models;
}

struct RunResult {
  std::string policy;
  double offered_rps = 0;
  double achieved_rps = 0;   ///< completed / wall (this host)
  double modelled_rps = 0;   ///< completed / simulated accelerator seconds
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double mean_batch = 0;
  std::uint64_t completed = 0, rejected = 0, batches = 0;
  std::uint64_t plan_misses = 0;
};

std::vector<RunResult> g_runs;
std::map<std::string, std::int64_t> g_buckets;  // model -> bound-guided bucket

RunResult run_load(const std::vector<ServedModel>& models,
                   const std::string& policy, std::int64_t force_bucket,
                   double offered_rps) {
  ServerOptions opts;
  opts.workers = kWorkers;
  opts.replicas = kWorkers;  // all workers can run same-model batches
  // Window sized so groups fill from the backlog once the host saturates;
  // at light load it is the latency price of batching (visible in p50).
  opts.max_delay = std::chrono::microseconds(4000);
  opts.force_bucket = force_bucket;
  // Bucket 4: at these request sizes the amortisation curve has flattened
  // by 4 (see the bucket table) and partial-group padding stays small.
  opts.batch_policy.max_bucket = 4;
  InferenceServer server(models, opts);
  server.start();
  if (force_bucket == 0)
    for (const auto& m : models) g_buckets[m.name] = server.bucket_of(m.name);

  const int n = num_requests();
  const std::uint64_t seed = seed_base();
  std::vector<InferRequest> requests;
  requests.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const ServedModel& m = models[static_cast<std::size_t>(i) % models.size()];
    requests.push_back({m.name, make_request_input(m, seed + i)});
  }

  // Open loop: fixed inter-arrival injection, regardless of completions.
  std::vector<std::future<InferResponse>> futures;
  futures.reserve(requests.size());
  const auto t0 = ServeClock::now();
  const auto interarrival = std::chrono::duration_cast<ServeClock::duration>(
      std::chrono::duration<double>(1.0 / offered_rps));
  for (int i = 0; i < n; ++i) {
    std::this_thread::sleep_until(t0 + i * interarrival);
    futures.push_back(server.submit(std::move(requests[static_cast<std::size_t>(i)])));
  }
  for (auto& f : futures) (void)f.get();
  const double wall =
      std::chrono::duration<double>(ServeClock::now() - t0).count();

  const StatsSnapshot s = server.stats();
  server.stop();
  RunResult r;
  r.policy = policy;
  r.offered_rps = offered_rps;
  r.completed = s.completed;
  r.rejected = s.rejected;
  r.batches = s.batches;
  r.achieved_rps = static_cast<double>(s.completed) / wall;
  r.modelled_rps = s.modelled_rps;
  r.p50_ms = s.latency_p50 * 1e3;
  r.p95_ms = s.latency_p95 * 1e3;
  r.p99_ms = s.latency_p99 * 1e3;
  r.mean_batch = s.mean_batch_size;
  r.plan_misses = s.plan_misses_after_warm;
  return r;
}

void register_all() {
  benchmark::RegisterBenchmark("serve/throughput", [](benchmark::State& st) {
    for (auto _ : st) {
      const auto models = bench_models();
      for (double load : offered_loads()) {
        g_runs.push_back(run_load(models, "batch1", 1, load));
        g_runs.push_back(run_load(models, "batched", 0, load));
      }
    }
  })->Iterations(1)->Unit(benchmark::kSecond);
}

const RunResult* find_run(const std::string& policy, double load) {
  for (const auto& r : g_runs)
    if (r.policy == policy && r.offered_rps == load) return &r;
  return nullptr;
}

void print_summary() {
  std::printf("\n=== Serving throughput: offered load x batching policy "
              "(%d requests per cell, %d workers, V100 model) ===\n",
              num_requests(), kWorkers);
  std::string buckets = "bound-guided buckets:";
  for (const auto& [model, b] : g_buckets)
    buckets += " " + model + "=" + std::to_string(b);
  std::printf("%s\n", buckets.c_str());

  Table t({"offered req/s", "policy", "achieved req/s", "modelled req/s",
           "p50 ms", "p99 ms", "mean batch", "rejected"});
  for (const auto& r : g_runs) {
    t.add_row({Table::fmt(r.offered_rps, 0), r.policy,
               Table::fmt(r.achieved_rps, 1), Table::fmt(r.modelled_rps, 0),
               Table::fmt(r.p50_ms, 2), Table::fmt(r.p99_ms, 2),
               Table::fmt(r.mean_batch, 2), std::to_string(r.rejected)});
  }
  std::printf("%s", t.to_string().c_str());

  const double peak = offered_loads().back();
  const RunResult* batched = find_run("batched", peak);
  const RunResult* batch1 = find_run("batch1", peak);
  double modelled_ratio = 0, wall_ratio = 0;
  if (batched != nullptr && batch1 != nullptr &&
      batch1->modelled_rps > 0 && batch1->achieved_rps > 0) {
    modelled_ratio = batched->modelled_rps / batch1->modelled_rps;
    wall_ratio = batched->achieved_rps / batch1->achieved_rps;
    std::printf("\nat %0.f req/s offered: batched vs batch1 = %.2fx modelled "
                "throughput, %.2fx wall (p99 %.2f vs %.2f ms)\n",
                peak, modelled_ratio, wall_ratio, batched->p99_ms,
                batch1->p99_ms);
  }
  std::printf("paper shape to check: batched >= batch1 in modelled req/s at "
              "the saturating load, converging to ~1x at the lightest "
              "load.\n");

  std::vector<std::string> runs_json;
  for (const auto& r : g_runs) {
    runs_json.push_back(
        JsonObject()
            .add("policy", r.policy)
            .add("offered_rps", r.offered_rps)
            .add("achieved_rps", r.achieved_rps)
            .add("modelled_rps", r.modelled_rps)
            .add("p50_ms", r.p50_ms)
            .add("p95_ms", r.p95_ms)
            .add("p99_ms", r.p99_ms)
            .add("mean_batch", r.mean_batch)
            .add("completed", static_cast<int>(r.completed))
            .add("rejected", static_cast<int>(r.rejected))
            .add("batches", static_cast<int>(r.batches))
            .add("plan_misses_after_warm", static_cast<int>(r.plan_misses))
            .to_string());
  }
  std::vector<std::string> bucket_json;
  for (const auto& [model, b] : g_buckets)
    bucket_json.push_back(JsonObject()
                              .add("model", model)
                              .add("bucket", static_cast<int>(b))
                              .to_string());
  double batched_modelled_rps_at_peak = 0;
  if (batched != nullptr) batched_modelled_rps_at_peak = batched->modelled_rps;
  // Histogram-derived (bucket-exact) wall p99 at the saturating load: the
  // tail-latency gate metric (wide band in gates.json — wall tails on a
  // shared runner are noisy; the gate catches the 2x-class regressions the
  // old weighted-percentile merge could hide).
  double batched_p99_ms_at_peak = 0;
  if (batched != nullptr) batched_p99_ms_at_peak = batched->p99_ms;
  JsonObject out;
  out.add("bench", "serve_throughput")
      .add("smoke", smoke())
      .add("seed", seed_base())
      .add("requests_per_cell", num_requests())
      .add("workers", kWorkers)
      .add("batched_modelled_rps_at_peak", batched_modelled_rps_at_peak)
      .add("batched_p99_ms_at_peak", batched_p99_ms_at_peak)
      .add_raw("bound_guided_buckets", json_array(bucket_json))
      .add_raw("runs", json_array(runs_json))
      .add("batched_vs_batch1_modelled_ratio_at_peak", modelled_ratio)
      .add("batched_vs_batch1_wall_ratio_at_peak", wall_ratio);
  write_bench_json("serve_throughput", out);
}

}  // namespace
}  // namespace convbound::bench

int main(int argc, char** argv) {
  convbound::bench::register_all();
  return convbound::bench::run_all(argc, argv,
                                   convbound::bench::print_summary);
}
