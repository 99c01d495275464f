#include "convbound/plan/planner.hpp"

#include <algorithm>
#include <cmath>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/tune/engine.hpp"

namespace convbound {

namespace {

bool is_winograd(ConvAlgorithm algo) {
  return algo == ConvAlgorithm::kWinogradFused ||
         algo == ConvAlgorithm::kWinogradPhased;
}

bool is_tunable(ConvAlgorithm algo) {
  return algo == ConvAlgorithm::kDirectTiled ||
         algo == ConvAlgorithm::kWinogradFused;
}

/// Arithmetic estimate for choosing e (FMA = 2 FLOPs): element-wise
/// products plus the input/output transform sandwiches; kernel transforms
/// are amortised and ignored.
double winograd_flops_estimate(const ConvShape& s, std::int64_t e) {
  const double a = static_cast<double>(e + s.kh - 1);
  const double tiles = static_cast<double>(s.batch) *
                       static_cast<double>((s.hout() + e - 1) / e) *
                       static_cast<double>((s.wout() + e - 1) / e);
  const double products = 2.0 * tiles * static_cast<double>(s.cin) *
                          static_cast<double>(s.cout) * a * a;
  const double in_transform =
      4.0 * tiles * static_cast<double>(s.cin) * a * a * a;
  const double out_transform = 4.0 * tiles * static_cast<double>(s.cout) *
                               static_cast<double>(e) * a * a;
  return products + in_transform + out_transform;
}

/// The paper's I/O prediction (elements, reads + writes) for an algorithm
/// with its chosen tile: Equation (20) for the direct dataflows (tiled, and
/// naive at its fixed 8 x 8 x 1 tile), Equation (22) for fused Winograd, and
/// 0 (no analytic model) for im2col and phased Winograd.
double predicted_io_elems(const ConvShape& s, ConvAlgorithm algo,
                          const ConvConfig& cfg, std::int64_t e) {
  const double out = static_cast<double>(s.output_elems());
  switch (algo) {
    case ConvAlgorithm::kDirectTiled:
    case ConvAlgorithm::kDirectNaive:
      return direct_dataflow_reads(s, cfg.x, cfg.y, cfg.z) + out;
    case ConvAlgorithm::kWinogradFused:
      return winograd_dataflow_reads(s, e, cfg.x, cfg.y, cfg.z) + out;
    case ConvAlgorithm::kIm2col:
    case ConvAlgorithm::kWinogradPhased:
      return 0;
  }
  return 0;
}

double roofline_seconds(const MachineSpec& spec, double io_elems,
                        double flops) {
  const double io_s = io_elems * sizeof(float) / spec.global_bw;
  const double fl_s = flops / spec.peak_flops;
  return std::max(io_s, fl_s) + spec.launch_overhead;
}

/// Best applicable lower bound of the algorithm's family; the exact proof
/// form can be vacuous (zero) at small scales, so take the leading form too.
double family_lower_bound(const ConvShape& s, ConvAlgorithm algo,
                          std::int64_t e, double S) {
  if (is_winograd(algo))
    return std::max(winograd_lower_bound(s, e, S),
                    winograd_lower_bound_leading(s, e, S));
  return std::max(direct_conv_lower_bound(s, S),
                  direct_conv_lower_bound_leading(s, S));
}

/// The front of a ranking as a plan; throws when nothing is feasible.
ConvPlan best_plan(const ConvShape& s,
                   const std::vector<PlanCandidate>& ranked) {
  CB_CHECK_MSG(!ranked.empty() && !ranked.front().infeasible,
               "no feasible plan for " << s.to_string());
  return ranked.front().plan;
}

std::string memo_key(const MachineSpec& spec, const ConvShape& s,
                     const PlannerOptions& o) {
  return spec.name + '|' + s.to_string() + '|' +
         std::to_string(static_cast<int>(o.mode)) + '|' +
         std::to_string(static_cast<int>(o.candidates)) + '|' +
         std::to_string(o.tune_budget) + '|' + std::to_string(o.seed) + '|' +
         std::to_string(o.force_e);
}

}  // namespace

std::vector<ConvAlgorithm> Planner::eligible_algorithms(CandidateSet set,
                                                        const ConvShape& s) {
  const std::vector<ConvAlgorithm> pool =
      set == CandidateSet::kOurs
          ? std::vector<ConvAlgorithm>{ConvAlgorithm::kDirectTiled,
                                       ConvAlgorithm::kWinogradFused}
          : std::vector<ConvAlgorithm>{ConvAlgorithm::kDirectNaive,
                                       ConvAlgorithm::kIm2col,
                                       ConvAlgorithm::kWinogradPhased};
  std::vector<ConvAlgorithm> out;
  for (ConvAlgorithm algo : pool)
    if (algorithm_supports(algo, s)) out.push_back(algo);
  return out;
}

std::int64_t Planner::choose_winograd_e(const ConvShape& s,
                                        const MachineSpec& spec) {
  if (!algorithm_supports(ConvAlgorithm::kWinogradFused, s)) return 0;
  const double S = static_cast<double>(spec.smem_floats());
  std::int64_t best_e = 0;
  double best_score = 0;
  // e capped at 4 (a <= r + 3): the accuracy envelope production Winograd
  // kernels use; larger tiles win on I/O but amplify transform error.
  for (std::int64_t e = 2; e <= 4; ++e) {
    if (e + s.kh - 1 > kMaxFusedWinogradTile) continue;  // no F(e, r) kernel
    const double io = winograd_dataflow_io(s, e, S, spec.num_sms);
    const double score =
        roofline_seconds(spec, io, winograd_flops_estimate(s, e));
    if (best_e == 0 || score < best_score) {
      best_e = e;
      best_score = score;
    }
  }
  return best_e;
}

namespace {

/// PlannerOptions::force_e when set, else the bound-guided choice. A forced
/// e must leave a fused-kernel tile (a = e + r - 1 <= 8), the same filter
/// choose_winograd_e applies.
std::int64_t winograd_e(const ConvShape& s, const MachineSpec& spec,
                        std::int64_t force_e) {
  if (force_e <= 0) return Planner::choose_winograd_e(s, spec);
  CB_CHECK_MSG(force_e + s.kh - 1 <= kMaxFusedWinogradTile,
               "force_e=" << force_e << ": no F(e, r) transform with a <= "
                          << kMaxFusedWinogradTile << " for "
                          << s.to_string());
  return force_e;
}

}  // namespace

PlanCandidate Planner::make_candidate(SimGpu& gpu, const ConvShape& s,
                                      ConvAlgorithm algo, std::int64_t e,
                                      const PlannerOptions& opts) {
  const MachineSpec& spec = gpu.spec();
  PlanCandidate c;
  ConvPlan& p = c.plan;
  p.shape = s;
  p.algorithm = algo;
  p.e = e;

  // Configuration: analytic Section 5 default, overridden by the tune cache
  // or a fresh autotuning run for the tunable dataflows in kTuned mode. The
  // naive direct baseline runs the tiled dataflow at its fixed tile.
  const bool wino = algo == ConvAlgorithm::kWinogradFused;
  if (algo == ConvAlgorithm::kDirectNaive) p.config = naive_direct_config(s);
  if (is_tunable(algo)) {
    p.config = wino ? default_winograd_config(s, e, spec)
                    : default_tiled_config(s, spec);
    if (opts.mode == PlanMode::kTuned) {
      const std::string key = TuneCache::make_key(spec, s, wino, e);
      if (cache_ != nullptr) {
        if (const auto hit = cache_->get(key)) {
          p.config = hit->config;
          p.tuned = true;
        }
      }
      if (!p.tuned) {
        AutotuneOptions aopts;
        aopts.budget = opts.tune_budget;
        aopts.seed = opts.seed;
        aopts.winograd = wino;
        aopts.e = e;
        const AutotuneOutcome outcome = autotune_conv(gpu, s, aopts);
        if (outcome.result.best_seconds < 1e30) {
          p.config = outcome.result.best;
          p.tuned = true;
          if (cache_ != nullptr)
            cache_->put(key, {p.config, outcome.best_gflops});
        }
      }
    }
  }

  p.predicted_io_elems = predicted_io_elems(s, algo, p.config, e);
  p.lower_bound_elems = family_lower_bound(
      s, algo, e, static_cast<double>(spec.smem_floats()));
  try {
    p.predicted_seconds = count_plan(spec, p, Layout::kNCHW).sim_time;
  } catch (const Error&) {
    // Configuration does not physically fit (e.g. shared-memory overflow);
    // keep the candidate visible but never select it.
    c.infeasible = true;
  }
  return c;
}

std::vector<PlanCandidate> Planner::rank(
    SimGpu& gpu, const ConvShape& s, const std::vector<ConvAlgorithm>& algos,
    const PlannerOptions& opts) {
  std::vector<PlanCandidate> cands;
  for (ConvAlgorithm algo : algos) {
    if (!algorithm_supports(algo, s)) continue;
    const std::int64_t e =
        is_winograd(algo) ? winograd_e(s, gpu.spec(), opts.force_e) : 2;
    cands.push_back(make_candidate(gpu, s, algo, e, opts));
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const PlanCandidate& a, const PlanCandidate& b) {
                     if (a.infeasible != b.infeasible) return b.infeasible;
                     return a.plan.predicted_seconds <
                            b.plan.predicted_seconds;
                   });
  return cands;
}

std::vector<PlanCandidate> Planner::enumerate(SimGpu& gpu, const ConvShape& s,
                                              const PlannerOptions& opts) {
  s.validate();
  return rank(gpu, s, eligible_algorithms(opts.candidates, s), opts);
}

ConvPlan Planner::plan(SimGpu& gpu, const ConvShape& s,
                       const PlannerOptions& opts) {
  const std::string key = memo_key(gpu.spec(), s, opts);
  {
    MutexLock lock(memo_mu_);
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  }
  // Planning (counting, autotuning) happens outside the lock; when two
  // threads race on the same cold shape, the first emplace wins and both
  // return the memoised plan.
  const ConvPlan p = best_plan(s, enumerate(gpu, s, opts));
  MutexLock lock(memo_mu_);
  return memo_.emplace(key, p).first->second;
}

std::size_t Planner::plans_memoised() const {
  MutexLock lock(memo_mu_);
  return memo_.size();
}

ConvPlan Planner::plan_algorithm(SimGpu& gpu, const ConvShape& s,
                                 const std::vector<ConvAlgorithm>& algos,
                                 const PlannerOptions& opts) {
  s.validate();
  CB_CHECK_MSG(algos.size() != 1 || algorithm_supports(algos.front(), s),
               to_string(algos.front()) << " does not support "
                                        << s.to_string());
  return best_plan(s, rank(gpu, s, algos, opts));
}

}  // namespace convbound
