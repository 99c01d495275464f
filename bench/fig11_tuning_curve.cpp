// Figure 11: achieved GFlops vs number of tuning iterations for the
// automation methods on AlexNet conv1 (V100 machine model), plus the
// cuDNN-like baseline as a horizontal reference.
//
// Ours = the auto-tuning engine (GBT cost model + parallel random walk on
// the optimality-pruned domain); the TVM searcher family = simulated
// annealing / genetic / random on the unpruned domain. New in this figure:
// the bound-guided branch-and-bound tuner ("bnb") on the pruned domain —
// the gated claim is that it reaches the best GFlops the sampling methods
// find while *measuring* strictly fewer configurations, because subtrees
// whose I/O lower bound cannot beat the incumbent are pruned unmeasured
// (bnb_configs_measured_ratio in the emitted JSON, gated in
// bench/baselines/gates.json).
//
// All tuners measure through the counting BatchMeasurer; the ATE method is
// additionally re-run through the executing ConvMeasurer to assert the two
// search traces are bit-identical and to report both wall-clocks. Results
// are emitted as BENCH_fig11_tuning_curve.json for trajectory tracking.
#include "bench_util.hpp"

#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/bnb.hpp"
#include "convbound/tune/tuners.hpp"
#include "convbound/util/timer.hpp"

namespace convbound::bench {
namespace {

// Smoke scale keeps CI wall-clock down while still letting bnb exhaust the
// pruned domain (~80 measurements on conv1), so the measured-configs gate
// stays meaningful at both scales.
int budget() { return serve_smoke() ? 128 : 200; }
std::vector<int> checkpoints() {
  if (serve_smoke()) return {8, 16, 32, 64, 96, 128};
  return {8, 16, 32, 64, 96, 128, 160, 200};
}

ConvShape conv1() { return make_shape(1, 3, 227, 96, 11, 4, 0); }

double to_gflops(const ConvShape& s, double seconds) {
  return static_cast<double>(s.flops()) / seconds / 1e9;
}

struct Curve {
  std::string name;
  std::vector<double> gflops_at_checkpoint;
  int converged_at = 0;
  double best_gflops = 0;
  double wall_seconds = 0;
  double configs_per_second = 0;
  int configs_measured = 0;
};

std::vector<Curve> g_curves;
double g_baseline_gflops = 0;

struct ExecutedVsCounted {
  double executed_wall_s = 0;
  double counted_wall_s = 0;
  bool histories_identical = false;
} g_ate_check;

struct BnbOutcome {
  TuneResult res;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t subtrees_pruned = 0;
  std::uint64_t configs_pruned = 0;
  std::uint64_t leaves_opened = 0;
  bool proven_optimal = false;
} g_bnb;
TuneResult g_ate_res, g_ga_res;

Curve make_curve(const std::string& name, const TuneResult& res,
                 const ConvShape& s, double wall_seconds) {
  Curve c;
  c.name = name;
  for (int cp : checkpoints()) {
    // bnb can exhaust its domain before the budget; clamp to the last trial
    // (the curve is flat from there — the search is provably finished).
    const std::size_t idx =
        std::min(static_cast<std::size_t>(cp), res.history.size()) - 1;
    c.gflops_at_checkpoint.push_back(to_gflops(s, res.history[idx].best_seconds));
  }
  c.converged_at = res.trials_to_converge();
  c.best_gflops = to_gflops(s, res.best_seconds);
  c.wall_seconds = wall_seconds;
  c.configs_measured = static_cast<int>(res.history.size());
  c.configs_per_second =
      static_cast<double>(res.history.size()) / wall_seconds;
  return c;
}

TuneResult run_tuner(const std::string& name, Tuner& tuner,
                     const SearchDomain& domain, const MachineSpec& spec) {
  BatchMeasurer measurer(spec, domain, /*seed=*/7);
  WallTimer timer;
  const TuneResult res = tuner.run(measurer, budget());
  g_curves.push_back(
      make_curve(name, res, domain.shape(), timer.seconds()));
  return res;
}

bool same_history(const TuneResult& a, const TuneResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (!(a.history[i].config == b.history[i].config)) return false;
    if (a.history[i].seconds != b.history[i].seconds) return false;
    if (a.history[i].best_seconds != b.history[i].best_seconds) return false;
  }
  return a.best_seconds == b.best_seconds;
}

/// First trial whose incumbent reaches `target_gflops` (tiny relative slack
/// for float noise); 0 when the trace never gets there.
int trials_to_target(const TuneResult& res, const ConvShape& s,
                     double target_gflops) {
  for (const auto& rec : res.history) {
    if (to_gflops(s, rec.best_seconds) >= target_gflops * (1 - 1e-9))
      return rec.trial;
  }
  return 0;
}

void register_all() {
  benchmark::RegisterBenchmark("fig11/tuning", [](benchmark::State& st) {
    for (auto _ : st) {
      SimGpu gpu(MachineSpec::v100());
      const ConvShape s = conv1();

      // cuDNN-like baseline reference line.
      const LaunchStats base = run_planned(gpu, s, kCudnnBaselinePair);
      g_baseline_gflops = static_cast<double>(s.flops()) / base.sim_time / 1e9;

      DomainOptions ours_opts;   // pruned
      DomainOptions tvm_opts;    // unpruned (TVM-like space)
      tvm_opts.prune_with_optimality = false;
      const auto pruned = SearchDomain::build(s, gpu.spec(), ours_opts);
      const auto full = SearchDomain::build(s, gpu.spec(), tvm_opts);

      AteTuner::Params ate_params;
      ate_params.seeds.push_back(default_tiled_config(s, gpu.spec()));
      AteTuner ate(7, ate_params);
      SimulatedAnnealingTuner sa(7);
      GeneticTuner ga(7);
      RandomTuner rnd(7);
      BnbOptions bnb_opts;
      bnb_opts.seeds.push_back(default_tiled_config(s, gpu.spec()));
      BranchAndBoundTuner bnb(bnb_opts);

      g_ate_res = run_tuner("dataflow + auto-tuning engine (ours)", ate,
                            pruned, gpu.spec());
      g_bnb.res = run_tuner("branch-and-bound (bounds, ours)", bnb, pruned,
                            gpu.spec());
      g_bnb.nodes_expanded = bnb.nodes_expanded();
      g_bnb.subtrees_pruned = bnb.subtrees_pruned();
      g_bnb.configs_pruned = bnb.configs_pruned();
      g_bnb.leaves_opened = bnb.leaves_opened();
      g_bnb.proven_optimal = bnb.proven_optimal();
      run_tuner("simulated annealing (TVM-like)", sa, full, gpu.spec());
      g_ga_res = run_tuner("genetic algorithm (TVM-like)", ga, full,
                           gpu.spec());
      run_tuner("random search (TVM-like)", rnd, full, gpu.spec());

      // Executed-vs-counted: same seed, same tuner, the executing and the
      // counting measurer must produce bit-identical traces; only
      // wall-clock differs.
      {
        ConvMeasurer executed(gpu, pruned, /*seed=*/7);
        AteTuner ate_executed(7, ate_params);
        WallTimer t_executed;
        const TuneResult res_executed = ate_executed.run(executed, budget());
        g_ate_check.executed_wall_s = t_executed.seconds();

        BatchMeasurer counted(gpu.spec(), pruned, /*seed=*/7);
        AteTuner ate_counted(7, ate_params);
        WallTimer t_counted;
        const TuneResult res_counted = ate_counted.run(counted, budget());
        g_ate_check.counted_wall_s = t_counted.seconds();

        g_ate_check.histories_identical =
            same_history(res_executed, res_counted);
      }
    }
  })->Iterations(1)->Unit(benchmark::kSecond);
}

void print_summary() {
  const ConvShape s = conv1();
  std::printf("\n=== Figure 11: GFlops vs tuning iterations, AlexNet conv1, "
              "V100 model ===\n");
  std::vector<std::string> header = {"method"};
  for (int cp : checkpoints()) header.push_back("@" + std::to_string(cp));
  header.push_back("converged@");
  header.push_back("measured");
  header.push_back("cfg/s");
  Table t(header);
  for (const auto& c : g_curves) {
    std::vector<std::string> row = {c.name};
    for (double g : c.gflops_at_checkpoint) row.push_back(Table::fmt(g, 0));
    row.push_back(std::to_string(c.converged_at));
    row.push_back(std::to_string(c.configs_measured));
    row.push_back(Table::fmt(c.configs_per_second, 1));
    t.add_row(std::move(row));
  }
  t.add_row([&] {
    std::vector<std::string> row = {"cuDNN-like baseline (no tuning)"};
    for (std::size_t i = 0; i < checkpoints().size(); ++i)
      row.push_back(Table::fmt(g_baseline_gflops, 0));
    row.push_back("-");
    row.push_back("-");
    row.push_back("-");
    return row;
  }());
  std::printf("%s", t.to_string().c_str());
  std::printf("\nate counted vs executed: %.3fs counted, %.2fs executed, "
              "traces identical: %s\n",
              g_ate_check.counted_wall_s, g_ate_check.executed_wall_s,
              g_ate_check.histories_identical ? "yes" : "NO  <-- bug!");

  // The gated branch-and-bound claim: same best GFlops as the strongest
  // sampling method, with strictly fewer measured configurations (the rest
  // pruned by admissible I/O lower bounds).
  const double ate_best = to_gflops(s, g_ate_res.best_seconds);
  const double ga_best = to_gflops(s, g_ga_res.best_seconds);
  const bool ref_is_ga = ga_best > ate_best;
  const TuneResult& ref = ref_is_ga ? g_ga_res : g_ate_res;
  const double target_gflops = ref_is_ga ? ga_best : ate_best;
  const double bnb_best = to_gflops(s, g_bnb.res.best_seconds);
  const bool reached = bnb_best >= target_gflops * (1 - 1e-9);
  const double ratio = static_cast<double>(g_bnb.res.history.size()) /
                       static_cast<double>(ref.history.size());
  std::printf("branch-and-bound: best %.0f GFlops vs target %.0f (%s, from "
              "%s), measured %zu vs %zu configs (ratio %.2f), pruned %llu, "
              "certified optimal: %s\n",
              bnb_best, target_gflops, reached ? "reached" : "MISSED",
              ref_is_ga ? "ga" : "ate", g_bnb.res.history.size(),
              ref.history.size(), ratio,
              static_cast<unsigned long long>(g_bnb.configs_pruned),
              g_bnb.proven_optimal ? "yes" : "no");
  std::printf("paper shape to check: ours climbs fastest and ends highest; "
              "all methods eventually beat the baseline.\n");

  std::vector<std::string> methods;
  for (const auto& c : g_curves) {
    methods.push_back(JsonObject()
                          .add("name", c.name)
                          .add("best_gflops", c.best_gflops)
                          .add("wall_seconds", c.wall_seconds)
                          .add("configs_per_second", c.configs_per_second)
                          .add("configs_measured", c.configs_measured)
                          .add("converged_at", c.converged_at)
                          .add("checkpoints", checkpoints())
                          .add("gflops_at_checkpoint", c.gflops_at_checkpoint)
                          .to_string());
  }
  JsonObject out;
  out.add("bench", "fig11_tuning_curve")
      .add("budget", budget())
      .add("baseline_gflops", g_baseline_gflops)
      .add_raw("methods", json_array(methods))
      .add("target_gflops", target_gflops)
      .add("target_method", ref_is_ga ? "ga" : "ate")
      .add("bnb_best_gflops", bnb_best)
      .add("bnb_reached_target", reached ? 1 : 0)
      .add("bnb_configs_measured", static_cast<int>(g_bnb.res.history.size()))
      .add("ref_configs_measured", static_cast<int>(ref.history.size()))
      .add("bnb_configs_measured_ratio", ratio)
      .add("bnb_trials_to_target", trials_to_target(g_bnb.res, s, target_gflops))
      .add("ref_trials_to_target", trials_to_target(ref, s, target_gflops))
      .add_raw("bnb_pruning",
               JsonObject()
                   .add("nodes_expanded", g_bnb.nodes_expanded)
                   .add("subtrees_pruned", g_bnb.subtrees_pruned)
                   .add("configs_pruned", g_bnb.configs_pruned)
                   .add("leaves_opened", g_bnb.leaves_opened)
                   .add("proven_optimal", g_bnb.proven_optimal)
                   .to_string())
      .add_raw("ate_counted_vs_executed",
               JsonObject()
                   .add("executed_wall_seconds", g_ate_check.executed_wall_s)
                   .add("counted_wall_seconds", g_ate_check.counted_wall_s)
                   .add("histories_identical",
                        g_ate_check.histories_identical)
                   .to_string());
  write_bench_json("fig11_tuning_curve", out);
}

}  // namespace
}  // namespace convbound::bench

int main(int argc, char** argv) {
  convbound::bench::register_all();
  return convbound::bench::run_all(argc, argv,
                                   convbound::bench::print_summary);
}
