// convbound-cli — command-line front end for the library.
//
// Subcommands:
//   bound  --cin N --in N --cout N [--ker N --stride N --pad N --smem KB]
//       Print I/O lower bounds and dataflow predictions for a shape.
//   run    --cin N --in N --cout N [...] [--machine NAME] [--algo NAME]
//       Execute one convolution on the simulated machine and report stats.
//   tune   --cin N --in N --cout N [...] [--budget N]
//          [--tuner bnb|ate|sa|ga|random]
//       Auto-tune the dataflow on the counting measurer, then re-execute
//       the winner on the simulated machine (exit 1 with `error:` when its
//       executed stats differ from the count). The bnb tuner prints its
//       pruning stats and reports when the result is a certified optimum.
//   models [--machine NAME]
//       Compare baseline vs our dataflows across the CNN model zoo.
//   plan   --model NAME [--batch N] | --cin N --in N --cout N [...]
//          [--mode measured|tuned] [--set ours|baseline]
//          [--budget N] [--machine NAME]
//       Bound-guided planning. With --model, print the per-layer plan table
//       (algorithm, config, Eq 20/22 predicted I/O vs the I/O lower bound,
//       `-` where the algorithm has no analytic model; a shape flag other
//       than --batch is an error there); with a single shape, print the
//       full candidate ranking. Every candidate is scored by the modelled
//       time of its counted launches; measured (default) plans analytic
//       default configs, tuned autotunes each distinct layer once per run.
//       No mode executes a kernel.
//   profile --model NAME [--batch N] [--reps N] [--seed N]
//           [--mode measured|tuned] [--set ours|baseline]
//           [--machine NAME]
//       Plans every layer as `plan --model` does, executes each on a
//       striped SimGpu and prints one row per layer: plan and config,
//       predicted I/O, lower bound and counted traffic, counted flops,
//       modelled ms, host wall ms (min over --reps, default 3) and host
//       GFLOP/s; then totals by algorithm. Exits 1 with `error:` when a
//       layer's counted traffic is below its Thm 4.12/4.20 bound, its
//       output differs from conv2d_ref, or its executed LaunchStats differ
//       from the closed-form count (count_plan), for every algorithm.
//   serve  [--machine NAME] [--serve-workers N] [--replicas N] [--queue N]
//          [shared load flags]
//   cluster [--devices CSV] [--policy bound|rr|least] [--dev-workers N]
//           [--replicas N] [--pending N] [--queue N] [shared load flags]
//       Closed-loop self-benchmark of the serving stack: N client threads
//       each send `requests` back-to-back requests across the (scaled-down)
//       models; prints the bound-guided bucket table per device, the
//       per-device placement table, throughput, latency percentiles, and
//       the batch-size histogram; exits non-zero on any failed request or
//       plan-cache miss after warmup. Both commands run one load loop over a
//       ClusterServer. `serve` is a one-device fleet: --machine (default
//       v100), --serve-workers (default 2) workers with one group in flight
//       per worker, --replicas default 1, --queue default 256. `cluster`
//       lists one MachineSpec per simulated device in --devices (default
//       "v100,hbm,dense"); the bound-aware Router places each request group
//       on the device with the best predicted per-request time, with work
//       stealing when it saturates (--dev-workers default 2, --replicas 0 =
//       one per worker, --pending 0 = 2x workers, --queue default 1024).
//     Shared load flags:
//          [--models CSV] [--clients N] [--producers N] [--requests N]
//          [--layers N] [--chan-cap N] [--spatial-cap N] [--shards N]
//          [--delay-us N] [--bucket N] [--max-bucket N]
//          [--mode measured|tuned] [--budget N] [--classes CSV]
//          [--congestion PCT] [--kill N] [--kill-after-ms N]
//          [--revive warm|cold] [--trace-out FILE] [--metrics-out FILE]
//       --bucket 0 (default) = bound-guided bucket; 1 = unbatched baseline.
//       --shards sets the front door's ingest shards (lock-striped submit;
//       1 = single-queue exact-EDF); --producers overrides --clients for
//       the number of submitting threads (contention knob).
//       --classes declares tenant classes as name:budget_ms:weight triples
//       (e.g. "paid:50:3,free:0:1"; budget 0 = no latency budget); client
//       threads are assigned classes round-robin and the summary adds a
//       per-class table (kQuotaExceeded counts as load shedding, not
//       failure). --kill N fails device N --kill-after-ms (default 5) into
//       the load; --revive brings it back warm (surviving engine) or cold
//       (rebuilt + re-warmed hot-join) halfway through the remaining load.
//
// Observability (serve and cluster; see docs/observability.md):
//   --trace-out FILE    enables tracing and writes a Chrome trace-event JSON
//                       (load in Perfetto / chrome://tracing) of the run:
//                       admission, queue residency, batch formation,
//                       placement, execution, completion — correlated by
//                       request and batch id.
//   --metrics-out FILE  writes the final stats snapshot as Prometheus-style
//                       text exposition (counters, gauges, and the
//                       per-stage latency histograms).
//
// Every command takes `--flag value` pairs and rejects a flag it does not
// read, or one without a value: exit 1 with `error: unknown flag --x`.
//
// Machines: 1080ti, titanx, v100 (default), gfx906, hbm, dense, test.
// Models: squeezenet, vgg-19, resnet-18, resnet-34, inception-v3, mobilenet.
// Algorithms (run --algo): tiled (default), naive, im2col, winograd, phased,
//   and cudnn, the best of naive and im2col (the paper's Section 7 baseline).
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "convbound/convbound.hpp"
#include "convbound/serve/obs_export.hpp"
#include "convbound/tune/batch_measure.hpp"
#include "convbound/util/timer.hpp"

namespace {

using namespace convbound;

/// Whole-token number parsers: anything strtoll/strtod cannot consume
/// entirely (empty, "abc", "12abc", out of range) throws convbound::Error
/// naming the flag, so main() reports it instead of aborting.
std::int64_t parse_int(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  CB_CHECK_MSG(!text.empty() && end == text.c_str() + text.size() &&
                   errno == 0,
               "--" << flag << " expects an integer, got '" << text << "'");
  return v;
}

double parse_double(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  CB_CHECK_MSG(!text.empty() && end == text.c_str() + text.size() &&
                   std::isfinite(v),
               "--" << flag << " expects a number, got '" << text << "'");
  return v;
}

struct Args {
  std::map<std::string, std::string> kv;

  std::int64_t geti(const std::string& key, std::int64_t def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : parse_int(key, it->second);
  }
  std::string gets(const std::string& key, const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
};

/// `--flag value` pairs. A flag the command does not read, or one without
/// a value, is an error: a misspelt or removed flag must not run with its
/// default in silence.
Args parse(int argc, char** argv, int start,
           const std::set<std::string>& known) {
  Args a;
  for (int i = start; i < argc; i += 2) {
    const std::string key = argv[i];
    CB_CHECK_MSG(key.rfind("--", 0) == 0, "expected --flag, got " << key);
    if (known.count(key.substr(2)) == 0) throw Error("unknown flag " + key);
    if (i + 1 == argc) throw Error(key + " expects a value");
    a.kv[key.substr(2)] = argv[i + 1];
  }
  return a;
}


ConvShape shape_from(const Args& a) {
  ConvShape s;
  s.batch = a.geti("batch", 1);
  s.cin = a.geti("cin", 64);
  s.hin = s.win = a.geti("in", 56);
  s.cout = a.geti("cout", 64);
  s.kh = s.kw = a.geti("ker", 3);
  s.stride = a.geti("stride", 1);
  s.pad = a.geti("pad", s.kh / 2);
  s.groups = a.geti("groups", 1);
  s.validate();
  return s;
}

int cmd_bound(const Args& a) {
  const ConvShape s = shape_from(a);
  const double S = static_cast<double>(a.geti("smem", 96) * 1024 / 4);
  std::printf("shape: %s   R = %.2f   S = %.0f floats\n",
              s.to_string().c_str(), s.reuse(), S);
  std::printf("direct conv lower bound (Thm 4.12):   %.3f MB\n",
              direct_conv_lower_bound(s, S) * 4e-6);
  std::printf("direct dataflow I/O (Eq 21, Np=1):    %.3f MB\n",
              direct_dataflow_io(s, S, 1) * 4e-6);
  if (algorithm_supports(ConvAlgorithm::kWinogradFused, s)) {
    std::printf("winograd lower bound (Thm 4.20, e=2): %.3f MB\n",
                winograd_lower_bound(s, 2, S) * 4e-6);
    std::printf("winograd dataflow I/O (Np=1):         %.3f MB\n",
                winograd_dataflow_io(s, 2, S, 1) * 4e-6);
  }
  const OptimalTile t = optimal_output_tile(s, S / 4);
  std::printf("optimality-condition tile at S/4 budget: x=%lld y=%lld z=%lld\n",
              static_cast<long long>(t.x), static_cast<long long>(t.y),
              static_cast<long long>(t.z));
  return 0;
}

int cmd_run(const Args& a) {
  const ConvShape s = shape_from(a);
  SimGpu gpu(spec_by_name(a.gets("machine", "v100")));
  const std::string algo_name = a.gets("algo", "tiled");
  const std::map<std::string, std::vector<ConvAlgorithm>> algos = {
      {"tiled", {ConvAlgorithm::kDirectTiled}},
      {"naive", {ConvAlgorithm::kDirectNaive}},
      {"im2col", {ConvAlgorithm::kIm2col}},
      {"cudnn", kCudnnBaselinePair},
      {"winograd", {ConvAlgorithm::kWinogradFused}},
      {"phased", {ConvAlgorithm::kWinogradPhased}}};
  const auto it = algos.find(algo_name);
  if (it == algos.end())
    throw Error("unknown algorithm '" + algo_name +
                "' (tiled|naive|im2col|cudnn|winograd|phased)");
  PlannerOptions opts;
  opts.force_e = 2;  // F(2x2, r x r), as the paper's Winograd panels
  Planner planner;
  const ConvPlan plan = planner.plan_algorithm(gpu, s, it->second, opts);
  const ConvProblem p = make_problem(s, a.geti("seed", 1));
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const LaunchStats stats = run_plan(gpu, plan, p.input, p.weights, out);
  // Verify against the reference oracle.
  const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
  const bool ok = allclose(expect, out, 1e-3, 1e-3);
  std::printf("%s on %s (%s)\n", algo_name.c_str(), gpu.spec().name.c_str(),
              s.to_string().c_str());
  std::printf("  correct:   %s\n", ok ? "yes" : "NO  <-- bug!");
  std::printf("  sim time:  %.3f us\n", stats.sim_time * 1e6);
  std::printf("  GFlops:    %.0f\n", stats.gflops());
  // The plan's bound is its algorithm family's (direct Thm 4.12 or
  // Winograd Thm 4.20), floored by the leading term where the exact form is
  // vacuous at small scales.
  const bool wino = plan.algorithm == ConvAlgorithm::kWinogradFused ||
                    plan.algorithm == ConvAlgorithm::kWinogradPhased;
  std::printf("  I/O:       %.3f MB (%.1fx the %s bound)\n",
              static_cast<double>(stats.bytes_total()) / 1e6,
              static_cast<double>(stats.bytes_total()) / 4.0 /
                  plan.lower_bound_elems,
              wino ? "Thm 4.20" : "Thm 4.12");
  return ok ? 0 : 1;
}

int cmd_tune(const Args& a) {
  const ConvShape s = shape_from(a);
  SimGpu gpu(spec_by_name(a.gets("machine", "v100")));
  AutotuneOptions opts;
  opts.budget = static_cast<int>(a.geti("budget", 64));
  opts.winograd = a.geti("winograd", 0) != 0;
  opts.seed = static_cast<std::uint64_t>(a.geti("seed", 1));
  opts.tuner = a.gets("tuner", "ate");

  const AutotuneOutcome outcome = autotune_conv(gpu, s, opts);
  std::printf("domain: %llu configurations; best after %zu trials (%s):\n",
              static_cast<unsigned long long>(outcome.domain.size()),
              outcome.result.history.size(), opts.tuner.c_str());
  std::printf("  %s -> %.0f GFlops (converged at trial %d)\n",
              outcome.result.best.to_string().c_str(), outcome.best_gflops,
              outcome.result.trials_to_converge());
  for (const auto& [stat, value] : outcome.tuner_stats)
    std::printf("  %s: %.0f\n", stat.c_str(), value);
  if (outcome.proven_optimal)
    std::printf("  certified optimal: every unmeasured configuration was "
                "pruned by an admissible bound\n");
  // The search counted its candidates; the winner must execute to exactly
  // the stats it was counted at.
  if (outcome.result.best_seconds < 1e30) {
    SimGpu serial(gpu.spec(), nullptr, ExecMode::kSerial);
    ConvMeasurer executed(serial, outcome.domain, opts.seed);
    BatchMeasurer counted(gpu.spec(), outcome.domain);
    const Measurement run = executed.measure(outcome.result.best);
    if (!run.valid || run.seconds != outcome.result.best_seconds ||
        run.stats != counted.measure(outcome.result.best).stats)
      throw Error("the best configuration executed to different LaunchStats "
                  "than it was counted at: " +
                  outcome.result.best.to_string());
  }
  return 0;
}

std::vector<ConvLayer> model_by_name(const std::string& name,
                                     std::int64_t batch) {
  auto lower = [](const std::string& s) {
    std::string out;
    for (char c : s)
      if (c != '-' && c != '_')
        out += static_cast<char>(std::tolower(c));
    return out;
  };
  const std::string want = lower(name);
  auto zoo = model_zoo(batch);
  zoo.emplace_back("MobileNet-v1", mobilenet_v1(batch));
  for (auto& [zoo_name, layers] : zoo) {
    const std::string have = lower(zoo_name);
    if (have == want || have.rfind(want, 0) == 0) return std::move(layers);
  }
  CB_CHECK_MSG(false, "unknown model '" << name
                                        << "' (squeezenet|vgg-19|resnet-18|"
                                           "resnet-34|inception-v3|mobilenet)");
  return {};
}

PlannerOptions planner_options_from(const Args& a) {
  PlannerOptions opts;
  const std::string mode = a.gets("mode", "measured");
  if (mode != "measured" && mode != "tuned")
    throw Error("unknown mode '" + mode + "' (measured|tuned)");
  opts.mode = mode == "tuned" ? PlanMode::kTuned : PlanMode::kMeasured;
  const std::string set = a.gets("set", "ours");
  CB_CHECK_MSG(set == "ours" || set == "baseline",
               "unknown candidate set '" << set << "' (ours|baseline)");
  opts.candidates =
      set == "ours" ? CandidateSet::kOurs : CandidateSet::kBaseline;
  opts.tune_budget = static_cast<int>(a.geti("budget", 32));
  opts.seed = static_cast<std::uint64_t>(a.geti("seed", 42));
  return opts;
}

/// True for the kernels that read a plan's config: the direct dataflow
/// (tiled, and naive at its fixed tile) and fused Winograd.
bool reads_config(const ConvPlan& p) {
  return p.algorithm == ConvAlgorithm::kDirectTiled ||
         p.algorithm == ConvAlgorithm::kDirectNaive ||
         p.algorithm == ConvAlgorithm::kWinogradFused;
}

/// The config cell: "-" for a kernel that reads no config.
std::string config_cell(const ConvPlan& p) {
  return reads_config(p) ? p.config.to_string() : "-";
}

/// The leading per-layer cells `plan --model` and `profile` share.
const std::vector<std::string> kPlanColumns = {
    "layer", "shape", "algorithm", "config", "pred I/O MB", "bound MB"};

/// A cell derived from the Eq 20/22 prediction: "-" for an algorithm with
/// no analytic model (predicted_io_elems 0).
std::string predicted_cell(const ConvPlan& p, double value, int digits) {
  return p.predicted_io_elems > 0 ? Table::fmt(value, digits) : "-";
}

std::vector<std::string> plan_cells(const ConvLayer& layer,
                                    const ConvPlan& p) {
  return {layer.name,
          layer.shape.to_string(),
          p.label(),
          config_cell(p),
          predicted_cell(p, p.predicted_io_elems * 4e-6, 3),
          Table::fmt(p.lower_bound_elems * 4e-6, 3)};
}

int cmd_plan(const Args& a) {
  SimGpu gpu(spec_by_name(a.gets("machine", "v100")));
  const PlannerOptions opts = planner_options_from(a);

  TuneCache cache;  // tuned planning searches each distinct layer once
  Planner planner(&cache);

  auto mb = [](double elems) { return elems * 4e-6; };
  const std::string model_name = a.gets("model", "");
  if (!model_name.empty()) {
    // The model fixes every layer's geometry; only --batch reaches it.
    for (const char* flag :
         {"cin", "in", "cout", "ker", "stride", "pad", "groups"})
      if (a.kv.count(flag) != 0)
        throw Error(std::string("--") + flag + " has no effect with --model");
    const auto layers = model_by_name(model_name, a.geti("batch", 1));
    std::vector<std::string> cols = kPlanColumns;
    cols.push_back("ratio");
    Table t(cols);
    double total_io = 0, total_pred_s = 0;
    for (const auto& layer : layers) {
      const ConvPlan p = planner.plan(gpu, layer.shape, opts);
      std::vector<std::string> row = plan_cells(layer, p);
      row.push_back(predicted_cell(p, p.bound_ratio(), 2));
      t.add_row(std::move(row));
      total_io += p.predicted_io_elems;
      total_pred_s += p.predicted_seconds;
    }
    std::printf("%s on %s (%s planning)\n", model_name.c_str(),
                gpu.spec().name.c_str(), a.gets("mode", "measured").c_str());
    std::printf("%s", t.to_string().c_str());
    std::printf(
        "total predicted I/O: %.2f MB   total measured time: %.3f ms\n",
        mb(total_io), total_pred_s * 1e3);
  } else {
    const ConvShape s = shape_from(a);
    const auto cands = planner.enumerate(gpu, s, opts);
    std::printf("candidates for %s on %s (best first):\n",
                s.to_string().c_str(), gpu.spec().name.c_str());
    Table t({"algorithm", "config", "pred I/O MB", "bound MB", "ratio",
             "measured ms", "note"});
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const ConvPlan& c = cands[i].plan;
      t.add_row({c.label(), config_cell(c),
                 predicted_cell(c, mb(c.predicted_io_elems), 3),
                 Table::fmt(mb(c.lower_bound_elems), 3),
                 predicted_cell(c, c.bound_ratio(), 2),
                 cands[i].infeasible
                     ? "-"
                     : Table::fmt(c.predicted_seconds * 1e3, 4),
                 cands[i].infeasible ? "infeasible"
                                     : (i == 0 ? "<- plan" : "")});
    }
    std::printf("%s", t.to_string().c_str());
  }
  return 0;
}

int cmd_profile(const Args& a) {
  SimGpu gpu(spec_by_name(a.gets("machine", "v100")));  // striped
  const PlannerOptions opts = planner_options_from(a);
  const std::string model_name = a.gets("model", "");
  CB_CHECK_MSG(!model_name.empty(), "profile needs --model NAME");
  const std::int64_t reps = a.geti("reps", 3);
  CB_CHECK_MSG(reps >= 1, "--reps must be >= 1, got " << reps);
  const auto layers = model_by_name(model_name, a.geti("batch", 1));

  struct Totals {
    int layers = 0;
    double flops = 0, sim_s = 0, wall_s = 0;
  };
  std::map<std::string, Totals> by_algo;
  std::vector<std::string> errors;
  std::vector<std::string> cols = kPlanColumns;
  cols.insert(cols.end(), {"counted MB", "MFLOP", "modelled ms", "wall ms",
                           "host GFLOP/s"});
  Table t(cols);
  Planner planner;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const ConvLayer& layer = layers[i];
    const ConvShape& s = layer.shape;
    const ConvPlan p = planner.plan(gpu, s, opts);
    const ConvProblem prob = make_problem(s, opts.seed + i);
    Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
    LaunchStats st;
    double wall_s = 0;
    for (std::int64_t r = 0; r < reps; ++r) {
      const WallTimer timer;
      st = run_plan(gpu, p, prob.input, prob.weights, out);
      const double dt = timer.seconds();
      wall_s = r == 0 ? dt : std::min(wall_s, dt);
    }
    const double counted = static_cast<double>(st.bytes_total());
    const double flops = static_cast<double>(st.flops);
    if (counted < p.lower_bound_elems * sizeof(float))
      errors.push_back(layer.name + ": counted traffic below the " +
                       "Thm 4.12/4.20 lower bound");
    if (!allclose(conv2d_ref(prob.input, prob.weights, s), out, 1e-3, 1e-3))
      errors.push_back(layer.name + ": output differs from conv2d_ref");
    if (st != count_plan(gpu.spec(), p, prob.input.layout()))
      errors.push_back(layer.name + ": executed LaunchStats differ from " +
                       "the closed-form count");

    std::vector<std::string> row = plan_cells(layer, p);
    row.insert(row.end(),
               {Table::fmt(counted * 1e-6, 3), Table::fmt(flops * 1e-6, 1),
                Table::fmt(st.sim_time * 1e3, 4), Table::fmt(wall_s * 1e3, 2),
                Table::fmt(flops / wall_s * 1e-9, 2)});
    t.add_row(std::move(row));
    Totals& tot = by_algo[to_string(p.algorithm)];
    ++tot.layers;
    tot.flops += flops;
    tot.sim_s += st.sim_time;
    tot.wall_s += wall_s;
  }
  std::printf("%s on %s (%s planning, striped, wall = min of %lld reps)\n",
              model_name.c_str(), gpu.spec().name.c_str(),
              a.gets("mode", "measured").c_str(),
              static_cast<long long>(reps));
  std::printf("%s", t.to_string().c_str());

  Table totals({"algorithm", "layers", "MFLOP", "modelled ms", "wall ms",
                "host GFLOP/s"});
  Totals all;
  auto add_total = [&](const std::string& name, const Totals& tot) {
    totals.add_row({name, Table::fmt_int(tot.layers),
                    Table::fmt(tot.flops * 1e-6, 1),
                    Table::fmt(tot.sim_s * 1e3, 4),
                    Table::fmt(tot.wall_s * 1e3, 2),
                    Table::fmt(tot.flops / tot.wall_s * 1e-9, 2)});
  };
  for (const auto& [name, tot] : by_algo) {
    add_total(name, tot);
    all.layers += tot.layers;
    all.flops += tot.flops;
    all.sim_s += tot.sim_s;
    all.wall_s += tot.wall_s;
  }
  add_total("total", all);
  std::printf("%s", totals.to_string().c_str());

  for (const std::string& e : errors)
    std::fprintf(stderr, "error: %s\n", e.c_str());
  return errors.empty() ? 0 : 1;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// --trace-out turns tracing on; must run before the load starts (events
/// are only recorded while enabled).
void maybe_enable_tracing(const Args& a) {
  if (!a.gets("trace-out", "").empty()) ObsRegistry::set_enabled(true);
}

/// Writes the Chrome trace (--trace-out) and/or the Prometheus text
/// exposition of `s` (--metrics-out) after the load completes.
void dump_observability(const Args& a, const StatsSnapshot& s,
                        const std::string& job) {
  const std::string trace_path = a.gets("trace-out", "");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    CB_CHECK_MSG(out.good(), "cannot open --trace-out " << trace_path);
    ObsRegistry::global().dump_chrome_trace(out);
    std::printf("trace written to %s (load in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  const std::string metrics_path = a.gets("metrics-out", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    CB_CHECK_MSG(out.good(), "cannot open --metrics-out " << metrics_path);
    publish_snapshot(ObsRegistry::global(), "job=\"" + job + "\"", s);
    ObsRegistry::global().dump_metrics_text(out);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
}

/// Parses "name:budget_ms:weight" tenant-class triples; trailing fields are
/// optional (budget 0 = no latency budget, weight defaults to 1).
std::vector<TenantClass> classes_from(const std::string& csv) {
  std::vector<TenantClass> classes;
  for (const std::string& spec : split_csv(csv)) {
    TenantClass c;
    const std::size_t colon1 = spec.find(':');
    c.name = spec.substr(0, colon1);
    if (colon1 != std::string::npos) {
      const std::size_t colon2 = spec.find(':', colon1 + 1);
      c.latency_budget_seconds =
          parse_double("classes",
                       spec.substr(colon1 + 1, colon2 - colon1 - 1)) /
          1e3;
      if (colon2 != std::string::npos)
        c.quota_weight = parse_double("classes", spec.substr(colon2 + 1));
    }
    classes.push_back(std::move(c));
  }
  return classes;
}

/// The closed-loop load behind `serve` and `cluster`. Both run a
/// ClusterServer; `serve` is a one-device fleet with its own flag names
/// and defaults (--machine, --serve-workers, one group in flight per
/// worker, a 256-deep queue).
int cmd_load(const Args& a, bool fleet) {
  ServedModelOptions scale;
  scale.max_layers = static_cast<std::size_t>(a.geti("layers", 3));
  scale.channel_cap = a.geti("chan-cap", 16);
  scale.spatial_cap = a.geti("spatial-cap", 28);

  std::vector<ServedModel> models;
  for (const std::string& name :
       split_csv(a.gets("models", "squeezenet,resnet-18")))
    models.push_back(
        make_served_model(name, model_by_name(name, 1), scale));

  ClusterOptions opts;
  if (fleet) {
    for (const std::string& spec :
         split_csv(a.gets("devices", "v100,hbm,dense"))) {
      DeviceConfig d;
      d.spec = spec_by_name(spec);
      d.workers = static_cast<int>(a.geti("dev-workers", 2));
      d.replicas = static_cast<int>(a.geti("replicas", 0));
      d.max_pending_groups = static_cast<int>(a.geti("pending", 0));
      opts.devices.push_back(std::move(d));
    }
    opts.policy = route_policy_by_name(a.gets("policy", "bound"));
  } else {
    ServerOptions one;
    one.machine = spec_by_name(a.gets("machine", "v100"));
    one.workers = static_cast<int>(a.geti("serve-workers", 2));
    one.replicas = static_cast<int>(a.geti("replicas", 1));
    opts = one.cluster_options();
  }
  opts.max_queue = static_cast<std::size_t>(
      a.geti("queue", static_cast<std::int64_t>(opts.max_queue)));
  opts.shards = static_cast<std::size_t>(a.geti("shards", 4));
  opts.max_delay = std::chrono::microseconds(a.geti("delay-us", 2000));
  opts.force_bucket = a.geti("bucket", 0);
  opts.batch_policy.max_bucket = a.geti("max-bucket", 8);
  const std::string mode = a.gets("mode", "measured");
  CB_CHECK_MSG(mode == "measured" || mode == "tuned",
               "planning mode must be measured|tuned");
  opts.plan_mode = mode == "tuned" ? PlanMode::kTuned : PlanMode::kMeasured;
  opts.tune_budget = static_cast<int>(a.geti("budget", 16));
  opts.classes = classes_from(a.gets("classes", ""));
  opts.admission_congestion =
      static_cast<double>(a.geti("congestion", 50)) / 100.0;
  const bool tenanted = !opts.classes.empty();

  const std::int64_t kill = a.geti("kill", -1);
  const std::string revive = a.gets("revive", "");
  CB_CHECK_MSG(revive.empty() || revive == "warm" || revive == "cold",
               "--revive must be warm|cold");
  CB_CHECK_MSG(revive.empty() || kill >= 0, "--revive needs --kill");

  maybe_enable_tracing(a);
  ClusterServer cluster(models, opts);
  WallTimer warm_timer;
  cluster.start();
  std::string device_names;
  for (std::size_t i = 0; i < cluster.num_devices(); ++i)
    device_names += (i ? ", " : "") + cluster.device(i).name() + " (" +
                    std::to_string(cluster.device(i).config().workers) +
                    " workers)";
  if (fleet)
    device_names += std::string("; ") + to_string(opts.policy) + " routing";
  std::printf("started: %zu models on %s, warmup %.1f ms "
              "(planning + workspace leases; no kernel runs)\n\n",
              models.size(), device_names.c_str(),
              warm_timer.seconds() * 1e3);

  // The bound-guided bucket of each model on each device: the scored
  // candidates, and the chosen bucket's predicted batch time — the cost
  // table placement decisions read.
  Table buckets({"device", "model", "bucket", "pred us/req by bucket",
                 "batch us at chosen"});
  for (std::size_t i = 0; i < cluster.num_devices(); ++i) {
    for (const auto& m : models) {
      const BucketChoice& c = cluster.device(i).engine().bucket_choice(m.name);
      std::string curve;
      double chosen_batch_us = 0;
      for (const auto& s : c.scores) {
        if (!curve.empty()) curve += "  ";
        curve += std::to_string(s.bucket) + ":" +
                 Table::fmt(s.predicted_seconds_per_request * 1e6, 1) +
                 (s.feasible ? "" : "!");
        if (s.bucket == c.bucket) chosen_batch_us = s.predicted_batch_seconds;
      }
      buckets.add_row({cluster.device(i).name(), m.name,
                       std::to_string(c.bucket), curve,
                       Table::fmt(chosen_batch_us * 1e6, 1)});
    }
  }
  std::printf("%s\n", buckets.to_string().c_str());

  // --producers is the contention knob for the sharded front door: it
  // overrides --clients as the number of submitting threads.
  const int clients =
      static_cast<int>(a.geti("producers", a.geti("clients", 4)));
  const int per_client = static_cast<int>(a.geti("requests", 16));
  WallTimer load_timer;
  // Failures are counted, never thrown: an exception escaping a client
  // thread would std::terminate the whole benchmark. Under tenancy the
  // quota/backpressure/budget outcomes are the feature working (explicit
  // load shedding), so they are tallied separately, not as failures.
  std::atomic<int> failures{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        const ServedModel& m = models[(c + i) % models.size()];
        InferRequest req{m.name, make_request_input(m, 7000u * c + i)};
        if (tenanted)
          req.tenant =
              opts.classes[static_cast<std::size_t>(c) % opts.classes.size()]
                  .name;
        const InferResponse r = cluster.submit(std::move(req)).get();
        if (r.status == ServeStatus::kOk) continue;
        const bool is_shed = tenanted &&
                             (r.status == ServeStatus::kQuotaExceeded ||
                              r.status == ServeStatus::kRejected ||
                              r.status == ServeStatus::kDeadlineExceeded);
        if (is_shed) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "request failed: %s %s\n",
                       to_string(r.status), r.error.c_str());
        }
      }
    });
  }
  // Chaos, driven from the main thread while the clients hammer the fleet:
  // kill mid-load, optionally hot-join the device back.
  std::size_t chaos_requeued = 0;
  if (kill >= 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(a.geti("kill-after-ms", 5)));
    chaos_requeued = cluster.fail_device(static_cast<std::size_t>(kill));
    if (!revive.empty()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(a.geti("kill-after-ms", 5)));
      cluster.revive_device(
          static_cast<std::size_t>(kill),
          revive == "warm" ? ReviveMode::kWarm : ReviveMode::kCold);
    }
  }
  for (auto& t : threads) t.join();
  const double wall = load_timer.seconds();
  const ClusterSnapshot s = cluster.stats();
  cluster.stop();

  std::printf("closed loop: %d clients x %d requests in %.2fs\n", clients,
              per_client, wall);
  Table devices({"device", "alive", "placed", "batches", "mean batch",
                 "completed", "modelled req/s", "plan misses"});
  for (const DeviceSnapshot& d : s.devices)
    devices.add_row({d.name, d.alive ? "yes" : "DEAD",
                     std::to_string(d.placements),
                     std::to_string(d.stats.batches),
                     Table::fmt(d.stats.mean_batch_size, 2),
                     std::to_string(d.stats.completed),
                     Table::fmt(d.stats.modelled_rps, 0),
                     std::to_string(d.stats.plan_misses_after_warm)});
  std::printf("%s\n", devices.to_string().c_str());

  const StatsSnapshot& f = s.fleet;
  if (tenanted && !f.classes.empty()) {
    Table classes({"class", "submitted", "completed", "quota-rej", "rejected",
                   "shutdown", "expired", "failed", "p50 / p99 ms"});
    for (const auto& [name, c] : f.classes)
      classes.add_row({name, std::to_string(c.submitted),
                       std::to_string(c.completed),
                       std::to_string(c.quota_rejected),
                       std::to_string(c.rejected),
                       std::to_string(c.shutdown_rejected),
                       std::to_string(c.expired), std::to_string(c.failed),
                       Table::fmt(c.latency.quantile(0.50) * 1e3, 2) + " / " +
                           Table::fmt(c.latency.quantile(0.99) * 1e3, 2)});
    std::printf("%s\n", classes.to_string().c_str());
  }

  Table t({"metric", "value"});
  t.add_row({"completed", std::to_string(f.completed)});
  t.add_row({"micro-batches", std::to_string(f.batches)});
  t.add_row({"mean batch size", Table::fmt(f.mean_batch_size, 2)});
  t.add_row({"throughput (wall)",
             Table::fmt(static_cast<double>(f.completed) / wall, 1) +
                 " req/s"});
  t.add_row({"throughput (modelled)",
             Table::fmt(f.modelled_rps, 0) + " req/s"});
  if (cluster.num_devices() > 1)
    t.add_row({"stolen groups (work stealing)",
               std::to_string(s.stolen_groups)});
  t.add_row({"latency p50 / p95 / p99 (ms)",
             Table::fmt(f.latency_p50 * 1e3, 2) + " / " +
                 Table::fmt(f.latency_p95 * 1e3, 2) + " / " +
                 Table::fmt(f.latency_p99 * 1e3, 2)});
  // Stage decomposition of the same completed requests: the three stages
  // sum to the end-to-end latency per request.
  t.add_row({"stage p99: queue / batch / exec (ms)",
             Table::fmt(f.queue_wait_p99 * 1e3, 2) + " / " +
                 Table::fmt(f.batch_delay_p99 * 1e3, 2) + " / " +
                 Table::fmt(f.exec_p99 * 1e3, 2)});
  t.add_row({"shed: full / quota / shutdown / expired",
             std::to_string(f.rejected) + " / " +
                 std::to_string(f.quota_rejected) + " / " +
                 std::to_string(f.shutdown_rejected) + " / " +
                 std::to_string(f.expired)});
  t.add_row({"max queue depth", std::to_string(f.max_queue_depth)});
  std::string shard_hwm;
  for (std::size_t i = 0; i < f.shard_max_depths.size(); ++i)
    shard_hwm += (i ? " " : "") + std::to_string(f.shard_max_depths[i]);
  t.add_row({"shard depth high-water marks", shard_hwm});
  t.add_row({"shard imbalance (max/mean)", Table::fmt(f.shard_imbalance, 2)});
  if (kill >= 0)
    t.add_row({"chaos: failures / revives / requeued",
               std::to_string(s.device_failures) + " / " +
                   std::to_string(s.device_revives) + " / " +
                   std::to_string(s.requeued_requests) + " (" +
                   std::to_string(chaos_requeued) + " at kill)"});
  t.add_row({"plan-cache misses after warm",
             std::to_string(f.plan_misses_after_warm)});
  t.add_row({"workspace",
             std::to_string(f.workspace_buffers) + " buffers, " +
                 Table::fmt(static_cast<double>(f.workspace_bytes) / 1e6, 2) +
                 " MB"});
  std::printf("%s", t.to_string().c_str());

  std::string hist = "batch-size histogram:";
  for (const auto& [size, count] : f.batch_histogram)
    hist += " " + std::to_string(size) + "x" + std::to_string(count);
  std::printf("%s\n", hist.c_str());
  dump_observability(a, f, fleet ? "cluster" : "serve");

  if (shed.load(std::memory_order_relaxed) > 0)
    std::printf("%d requests shed (quota / backpressure / budget)\n",
                shed.load(std::memory_order_relaxed));
  if (failures.load(std::memory_order_relaxed) > 0)
    std::fprintf(stderr, "%d requests failed\n",
                 failures.load(std::memory_order_relaxed));
  // Every client future has resolved, so every submitted request must sit
  // in exactly one disposition, in the fleet total and in each class.
  const auto accounted = [](const std::string& what, const RequestCounts& c) {
    if (c.submitted == c.resolved()) return true;
    std::fprintf(stderr,
                 "error: %s accounting: %llu submitted but %llu resolved\n",
                 what.c_str(), static_cast<unsigned long long>(c.submitted),
                 static_cast<unsigned long long>(c.resolved()));
    return false;
  };
  bool all_accounted = accounted("fleet", f);
  for (const auto& [name, c] : f.classes)
    all_accounted = accounted("class " + name, c) && all_accounted;
  if (!all_accounted) return 1;
  return failures.load(std::memory_order_relaxed) == 0 &&
                 f.plan_misses_after_warm == 0
             ? 0
             : 1;
}

int cmd_models(const Args& a) {
  SimGpu gpu(spec_by_name(a.gets("machine", "v100")));
  Table t({"model", "conv GFLOP", "baseline (ms)", "ours (ms)", "speedup"});
  auto zoo = model_zoo(a.geti("batch", 1));
  zoo.emplace_back("MobileNet-v1", mobilenet_v1(a.geti("batch", 1)));
  for (const auto& [name, layers] : zoo) {
    const ModelReport base =
        run_model(gpu, name, layers, ModelStrategy::kBaseline);
    const ModelReport ours =
        run_model(gpu, name, layers, ModelStrategy::kOursDefault);
    t.add_row({name,
               Table::fmt(static_cast<double>(model_flops(layers)) / 1e9, 2),
               Table::fmt(base.total_seconds * 1e3, 2),
               Table::fmt(ours.total_seconds * 1e3, 2),
               Table::fmt(base.total_seconds / ours.total_seconds, 2)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

/// A command and every flag it reads.
struct Command {
  int (*run)(const Args&);
  std::set<std::string> flags;
};

std::set<std::string> flag_set(
    std::initializer_list<std::vector<std::string>> groups) {
  std::set<std::string> out;
  for (const auto& g : groups) out.insert(g.begin(), g.end());
  return out;
}

const std::map<std::string, Command>& commands() {
  const std::vector<std::string> shape = {"batch", "cin",    "in",  "cout",
                                          "ker",   "stride", "pad", "groups"};
  const std::vector<std::string> planning = {"machine", "mode", "set",
                                             "budget", "seed"};
  const std::vector<std::string> load = {
      "models",  "layers",    "chan-cap",   "spatial-cap", "queue",
      "shards",  "delay-us",  "bucket",     "max-bucket",  "mode",
      "budget",  "classes",   "congestion", "kill",        "kill-after-ms",
      "revive",  "clients",   "producers",  "requests",    "trace-out",
      "metrics-out"};
  static const std::map<std::string, Command> table = {
      {"bound", {cmd_bound, flag_set({shape, {"smem"}})}},
      {"run", {cmd_run, flag_set({shape, {"machine", "algo", "seed"}})}},
      {"tune",
       {cmd_tune, flag_set({shape,
                            {"machine", "budget", "winograd", "seed", "tuner"}})}},
      {"plan", {cmd_plan, flag_set({shape, planning, {"model"}})}},
      {"profile",
       {cmd_profile, flag_set({planning, {"model", "batch", "reps"}})}},
      {"models", {cmd_models, flag_set({{"machine", "batch"}})}},
      {"serve",
       {[](const Args& a) { return cmd_load(a, false); },
        flag_set({load, {"machine", "serve-workers", "replicas"}})}},
      {"cluster",
       {[](const Args& a) { return cmd_load(a, true); },
        flag_set({load, {"devices", "policy", "dev-workers", "replicas",
                         "pending"}})}},
  };
  return table;
}

int usage() {
  std::fprintf(stderr,
               "usage: convbound-cli <bound|run|tune|plan|profile|models|"
               "serve|cluster> [--flag value]...\n"
               "  see the header comment of tools/convbound_cli.cpp\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto& table = commands();
  const auto it = table.find(argv[1]);
  if (it == table.end()) return usage();
  try {
    return it->second.run(parse(argc, argv, 2, it->second.flags));
  } catch (const convbound::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
