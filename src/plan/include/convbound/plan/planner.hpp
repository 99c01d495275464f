// Bound-guided convolution planning: one decision point for every caller
// (API, model inference, CLI, benches).
//
// The Planner enumerates the algorithms eligible for a shape through the
// centralized capability query (`algorithm_supports`), scores each candidate
// by the modelled time of its counted launches (count_plan: the LaunchStats
// the SimGpu would report, in closed form; no kernel runs), records the
// bounds layer's Eq 20/22 I/O prediction and Thm 4.12/4.20 lower bound
// beside it, configures each tunable candidate (the analytic Section 5
// default, or under kTuned the branch-and-bound tuner's certified optimum),
// and emits an immutable ConvPlan for the executor. Plans are memoised per
// (machine, shape, options), so callers plan once and execute many times.
//
// Concurrency: plan()/enumerate() are safe to call from several threads on
// one Planner (the memo is mutex-guarded); concurrent cold misses may plan
// the same shape twice, but both compute the same plan, the first memoised
// one wins and every caller receives it. Planning reads only the SimGpu's
// MachineSpec, so a shared SimGpu is safe too.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "convbound/machine/sim_gpu.hpp"
#include "convbound/plan/conv_plan.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

/// How tunable candidates are configured. Every candidate is scored by the
/// modelled time of its counted launches (count_plan, what a SimGpu run
/// would report) and the lowest wins.
enum class PlanMode {
  /// Analytic Section 5 default configurations.
  kMeasured,
  /// Like kMeasured, but tunable algorithms take the optimum of their
  /// pruned search domain, seeded with the Section 5 default and certified
  /// by the branch-and-bound tuner: a pure function of (machine, shape,
  /// algorithm, e).
  kTuned,
};

/// Which algorithm family competes for the plan.
enum class CandidateSet {
  kOurs,      ///< the paper's dataflows: tiled direct + fused Winograd
  kBaseline,  ///< cuDNN-like: naive direct, im2col+GEMM, phased Winograd
};

/// The paper's Section 7 baseline, "the best of two direct implementations
/// in cuDNN": a best-of over these two kernels for plan_algorithm, not an
/// algorithm of its own. Naive comes first, so it wins ties; grouped shapes
/// leave only naive (im2col needs groups == 1).
inline const std::vector<ConvAlgorithm> kCudnnBaselinePair = {
    ConvAlgorithm::kDirectNaive, ConvAlgorithm::kIm2col};

struct PlannerOptions {
  PlanMode mode = PlanMode::kMeasured;
  CandidateSet candidates = CandidateSet::kOurs;
  /// Pin the Winograd variant F(e, r); 0 = bound-guided choice.
  std::int64_t force_e = 0;
};

/// One scored planning candidate; exposed so the CLI can print the full
/// ranking, not just the winner.
struct PlanCandidate {
  ConvPlan plan;
  /// Candidate's launch cannot run (count_plan throws, e.g. its
  /// configuration exceeds shared memory); never selected.
  bool infeasible = false;
};

class Planner {
 public:
  /// Centralized capability query: the algorithms of `set` that can run
  /// `s`, per algorithm_supports. Never empty (direct always applies).
  static std::vector<ConvAlgorithm> eligible_algorithms(CandidateSet set,
                                                        const ConvShape& s);

  /// Bound-guided Winograd output-tile edge: the feasible e (transform tile
  /// e + r - 1 <= 8, capped at 4 for accuracy) minimising the roofline time
  /// of the predicted dataflow I/O + arithmetic. 0 when Winograd cannot run
  /// `s` at all.
  static std::int64_t choose_winograd_e(const ConvShape& s,
                                        const MachineSpec& spec);

  /// All scored candidates for `s`, best first. Infeasible candidates sort
  /// last and are marked rather than dropped.
  std::vector<PlanCandidate> enumerate(SimGpu& gpu, const ConvShape& s,
                                       const PlannerOptions& opts);

  /// Best candidate as an immutable plan; memoised per (machine, shape,
  /// options).
  ConvPlan plan(SimGpu& gpu, const ConvShape& s, const PlannerOptions& opts);

  /// Plans the given algorithms instead of competing a CandidateSet (the
  /// per-panel benches, CLI `run`); not memoised. One algorithm must
  /// support `s`. Several are a best-of such as kCudnnBaselinePair, as
  /// cuDNN's find phase does: the ones that support `s` are counted and the
  /// lowest modelled time wins, the earlier algorithm on ties. Throws when
  /// no candidate's launch can run, where run_plan would.
  ConvPlan plan_algorithm(SimGpu& gpu, const ConvShape& s,
                          const std::vector<ConvAlgorithm>& algos,
                          const PlannerOptions& opts);

  std::size_t plans_memoised() const;

 private:
  PlanCandidate make_candidate(SimGpu& gpu, const ConvShape& s,
                               ConvAlgorithm algo, std::int64_t e,
                               const PlannerOptions& opts);
  /// The one best-of: scores every algorithm of `algos` that supports `s`,
  /// best first (stable, so earlier algorithms win ties); infeasible
  /// candidates sort last.
  std::vector<PlanCandidate> rank(SimGpu& gpu, const ConvShape& s,
                                  const std::vector<ConvAlgorithm>& algos,
                                  const PlannerOptions& opts);

  mutable Mutex memo_mu_;
  std::map<std::string, ConvPlan> memo_ CB_GUARDED_BY(memo_mu_);
};

}  // namespace convbound
