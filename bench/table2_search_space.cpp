// Table 2: search-space size, iterations-to-convergence and solution quality
// for the auto-tuning engine (ATE, pruned domain) vs a TVM-like tuner (same
// GBT cost model, unpruned domain), on AlexNet conv layers, V100 model.
//
// Both searches run on the counting BatchMeasurer, so the table takes well
// under a second; it prints its rows directly. Emits
// BENCH_table2_search_space.json: each row's ATE/TVM space ratio and both
// tuners' GFLOP/s.
#include "bench_util.hpp"

#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/tuners.hpp"

namespace convbound::bench {
namespace {

constexpr int kBudget = 64;

struct Layer {
  const char* name;
  ConvShape shape;
  bool winograd;
  // Gated JSON keys: ATE/TVM space ratio, TVM GFLOP/s, ATE GFLOP/s.
  const char* ratio_key;
  const char* tvm_key;
  const char* ate_key;
};

struct Row {
  std::uint64_t tvm_space = 0, ate_space = 0;
  int tvm_iters = 0, ate_iters = 0;
  double tvm_gflops = 0, ate_gflops = 0;
};

Row run_row(const Layer& layer) {
  const MachineSpec spec = MachineSpec::v100();
  DomainOptions ate_opts, tvm_opts;
  ate_opts.winograd = tvm_opts.winograd = layer.winograd;
  ate_opts.e = tvm_opts.e = 2;
  ate_opts.prune_with_optimality = true;
  tvm_opts.prune_with_optimality = false;

  const auto ate_domain = SearchDomain::build(layer.shape, spec, ate_opts);
  const auto tvm_domain = SearchDomain::build(layer.shape, spec, tvm_opts);
  Row row;
  row.ate_space = ate_domain.size();
  row.tvm_space = tvm_domain.size();

  {
    BatchMeasurer m(spec, ate_domain, 11);
    AteTuner::Params params;
    params.seeds.push_back(
        layer.winograd ? default_winograd_config(layer.shape, 2, spec)
                       : default_tiled_config(layer.shape, spec));
    AteTuner tuner(11, params);
    const TuneResult r = tuner.run(m, kBudget);
    row.ate_iters = r.trials_to_converge();
    row.ate_gflops = m.gflops(r.best_seconds);
  }
  {
    BatchMeasurer m(spec, tvm_domain, 11);
    AteTuner tuner(11);  // same engine, unpruned space = TVM-like
    const TuneResult r = tuner.run(m, kBudget);
    row.tvm_iters = r.trials_to_converge();
    row.tvm_gflops = m.gflops(r.best_seconds);
  }
  return row;
}

void print_table() {
  const Layer layers[] = {
      {"conv1", make_shape(1, 3, 227, 96, 11, 4, 0), false,
       "conv1_space_ratio", "conv1_tvm_gflops", "conv1_ate_gflops"},
      {"conv2", make_shape(1, 96, 27, 256, 5, 1, 2), false,
       "conv2_space_ratio", "conv2_tvm_gflops", "conv2_ate_gflops"},
      {"conv3", make_shape(1, 256, 13, 384, 3, 1, 1), false,
       "conv3_space_ratio", "conv3_tvm_gflops", "conv3_ate_gflops"},
      {"conv4", make_shape(1, 384, 13, 256, 3, 1, 1), false,
       "conv4_space_ratio", "conv4_tvm_gflops", "conv4_ate_gflops"},
      {"conv3_wino", make_shape(1, 256, 13, 384, 3, 1, 1), true,
       "conv3_wino_space_ratio", "conv3_wino_tvm_gflops",
       "conv3_wino_ate_gflops"},
      {"conv4_wino", make_shape(1, 384, 13, 256, 3, 1, 1), true,
       "conv4_wino_space_ratio", "conv4_wino_tvm_gflops",
       "conv4_wino_ate_gflops"},
  };
  std::printf("\n=== Table 2: TVM-like tuner vs auto-tuning engine (ATE), "
              "AlexNet conv layers, V100 model ===\n");
  Table t({"layer", "space TVM", "space ATE", "ATE/TVM", "iters TVM",
           "iters ATE", "TVM/ATE", "GFlops TVM", "GFlops ATE", "ATE/TVM"});
  JsonObject json;
  json.add("bench", "table2_search_space").add("machine", "v100");
  for (const Layer& layer : layers) {
    const Row r = run_row(layer);
    json.add(layer.ratio_key, static_cast<double>(r.ate_space) /
                                  static_cast<double>(r.tvm_space))
        .add(layer.tvm_key, r.tvm_gflops)
        .add(layer.ate_key, r.ate_gflops);
    t.add_row({layer.name,
               Table::fmt_int(static_cast<long long>(r.tvm_space)),
               Table::fmt_int(static_cast<long long>(r.ate_space)),
               Table::fmt(100.0 * static_cast<double>(r.ate_space) /
                              static_cast<double>(r.tvm_space),
                          1) + "%",
               std::to_string(r.tvm_iters), std::to_string(r.ate_iters),
               Table::fmt(static_cast<double>(r.tvm_iters) /
                              static_cast<double>(r.ate_iters),
                          2),
               Table::fmt(r.tvm_gflops, 0), Table::fmt(r.ate_gflops, 0),
               Table::fmt(r.ate_gflops / r.tvm_gflops, 2)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\npaper shape to check: ATE space is ~20-55%% of TVM's, ATE "
              "converges in fewer iterations, solution GFlops >= TVM's.\n");
  write_bench_json("table2_search_space", json);
}

}  // namespace
}  // namespace convbound::bench

int main() {
  convbound::bench::print_table();
  return 0;
}
