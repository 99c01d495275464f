// Ablation/validation: the pebble game engine vs the analytic theory.
//
// For small direct-convolution and Winograd DAGs, play the red-blue pebble
// game under several fast-memory sizes and scheduling orders, and print the
// measured Q against (a) the paper's lower bounds and (b) the dataflow I/O
// predictions. Two invariants are checked and fail the run (exit 1): every
// measured Q sits at or above the bound, and the dataflow order moves no
// more than the naive/phased order. Whether the dataflow/bound gap shrinks
// as S grows is printed as an observation per DAG, not checked. Every Q is
// a deterministic game, so the bench prints its results directly.
#include "bench_util.hpp"

#include "convbound/pebble/game.hpp"
#include "convbound/pebble/generators.hpp"

namespace convbound::bench {
namespace {

struct RowResult {
  std::string label;
  std::size_t S;
  std::uint64_t q_naive, q_tiled;
  double bound;

  double gap() const { return static_cast<double>(q_tiled) / bound; }
};

std::vector<RowResult> direct_rows() {
  ConvDagShape ds;
  ds.cin = 8;
  ds.hin = ds.win = 12;
  ds.cout = 8;
  ConvShape s;
  s.cin = ds.cin;
  s.hin = ds.hin;
  s.win = ds.win;
  s.cout = ds.cout;
  std::vector<RowResult> rows;
  for (std::size_t S : {128u, 256u, 512u, 1024u}) {
    const auto naive =
        play_pebble_game(direct_conv_dag(ds, TileSpec{1, 1, 1}), S);
    // R = 9 -> (6, 6, 4) satisfies x*y = R*z.
    const auto tiled =
        play_pebble_game(direct_conv_dag(ds, TileSpec{6, 6, 4}), S);
    rows.push_back({"direct 12x12x8->8", S, naive.total(), tiled.total(),
                    direct_conv_lower_bound_leading(s,
                                                    static_cast<double>(S))});
  }
  return rows;
}

std::vector<RowResult> winograd_rows() {
  WinogradDagShape ws;
  ws.cin = 4;
  ws.tiles_h = ws.tiles_w = 3;
  ws.cout = 4;
  ConvShape s;
  s.cin = ws.cin;
  s.hin = ws.hin();
  s.win = ws.win();
  s.cout = ws.cout;
  std::vector<RowResult> rows;
  for (std::size_t S : {256u, 512u, 1024u}) {
    const auto phased =
        play_pebble_game(winograd_dag(ws, WinogradOrder::kPhased), S);
    const auto fused =
        play_pebble_game(winograd_dag(ws, WinogradOrder::kFused), S);
    rows.push_back(
        {"winograd F(2,3) 6x6 tiles", S, phased.total(), fused.total(),
         winograd_lower_bound_leading(s, ws.e, static_cast<double>(S)) /
             8.0});  // leading form's constant is loose at toy scale
  }
  return rows;
}

/// Prints the table and the verdicts; returns false when a checked
/// invariant fails.
bool report(const std::vector<std::vector<RowResult>>& families) {
  std::printf("\n=== Bound validation: pebble-game Q vs analytic lower "
              "bounds ===\n");
  Table t({"DAG", "S", "Q naive/phased order", "Q dataflow order",
           "lower bound", "dataflow/bound"});
  bool above_bound = true, dataflow_no_worse = true;
  std::string shrinks;
  for (const auto& rows : families) {
    bool monotone = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const RowResult& r = rows[i];
      t.add_row({r.label, std::to_string(r.S),
                 Table::fmt_int(static_cast<long long>(r.q_naive)),
                 Table::fmt_int(static_cast<long long>(r.q_tiled)),
                 Table::fmt(r.bound, 0), Table::fmt(r.gap(), 2)});
      above_bound = above_bound &&
                    static_cast<double>(r.q_naive) >= r.bound &&
                    static_cast<double>(r.q_tiled) >= r.bound;
      dataflow_no_worse = dataflow_no_worse && r.q_tiled <= r.q_naive;
      monotone = monotone && (i == 0 || r.gap() <= rows[i - 1].gap());
    }
    shrinks += "  " + rows.front().label + ": " + (monotone ? "yes" : "no") +
               "\n";
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nchecked: every Q >= bound: %s; dataflow order <= naive "
              "order: %s\n",
              above_bound ? "yes" : "NO", dataflow_no_worse ? "yes" : "NO");
  std::printf("observed: the dataflow/bound gap shrinks as S grows:\n%s",
              shrinks.c_str());
  return above_bound && dataflow_no_worse;
}

}  // namespace
}  // namespace convbound::bench

int main() {
  using namespace convbound::bench;
  return report({direct_rows(), winograd_rows()}) ? 0 : 1;
}
