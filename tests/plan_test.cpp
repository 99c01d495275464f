#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/conv/reference.hpp"
#include "convbound/nets/inference.hpp"
#include "convbound/plan/executor.hpp"
#include "convbound/plan/planner.hpp"
#include "convbound/plan/workspace.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

ConvShape shape(std::int64_t cin, std::int64_t hw, std::int64_t cout,
                std::int64_t k, std::int64_t stride, std::int64_t pad,
                std::int64_t groups = 1) {
  ConvShape s;
  s.cin = cin;
  s.hin = s.win = hw;
  s.cout = cout;
  s.kh = s.kw = k;
  s.stride = stride;
  s.pad = pad;
  s.groups = groups;
  s.validate();
  return s;
}

// ------------------------------------------------- capability query ------

TEST(Eligibility, CentralizedInAlgorithmSupports) {
  // Grouped: no Winograd, no im2col; direct paths stay.
  const ConvShape grouped = shape(8, 10, 8, 3, 1, 1, 4);
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kWinogradFused, grouped));
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kIm2col, grouped));
  EXPECT_TRUE(algorithm_supports(ConvAlgorithm::kDirectTiled, grouped));
  EXPECT_TRUE(algorithm_supports(ConvAlgorithm::kDirectNaive, grouped));

  // Strided: no Winograd.
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kWinogradFused,
                                  shape(4, 10, 4, 3, 2, 1)));
  // 5x5 stride 1 is Winograd-eligible (F(2..4, 5) transforms exist).
  EXPECT_TRUE(algorithm_supports(ConvAlgorithm::kWinogradFused,
                                 shape(4, 12, 4, 5, 1, 2)));
  // 1x1 and over-large kernels are not (no useful F(e, r) transform).
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kWinogradFused,
                                  shape(4, 10, 4, 1, 1, 0)));
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kWinogradFused,
                                  shape(4, 20, 4, 9, 1, 4)));
  // Non-square kernel: no Winograd.
  ConvShape rect = shape(4, 12, 4, 3, 1, 1);
  rect.kw = 5;
  rect.pad = 0;
  rect.validate();
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kWinogradFused, rect));
}

TEST(Eligibility, PlannerEnumeratesBySet) {
  const ConvShape s = shape(8, 12, 8, 3, 1, 1);
  const auto ours =
      Planner::eligible_algorithms(CandidateSet::kOurs, s);
  EXPECT_EQ(ours.size(), 2u);  // tiled direct + fused Winograd
  const auto base =
      Planner::eligible_algorithms(CandidateSet::kBaseline, s);
  EXPECT_EQ(base.size(), 3u);  // naive, im2col, phased

  const ConvShape dw = shape(8, 12, 8, 3, 1, 1, 8);  // depthwise
  EXPECT_EQ(Planner::eligible_algorithms(CandidateSet::kOurs, dw).size(),
            1u);
  EXPECT_EQ(Planner::eligible_algorithms(CandidateSet::kBaseline, dw).size(),
            1u);
}

// -------------------------------------------------------- fuzz plans -----

// Randomized shapes (grouped, strided, non-square kernels and images):
// every plan the planner emits must execute and match the reference
// convolution, for both candidate sets.
TEST(Planner, FuzzPlansExecuteAndMatchReference) {
  Rng rng(20260727);
  SimGpu gpu(MachineSpec::v100());
  Planner planner;
  Workspace ws;
  ConvExecutor exec(ws);

  for (int trial = 0; trial < 24; ++trial) {
    ConvShape s;
    s.batch = rng.range(1, 2);
    s.cin = rng.range(1, 8);
    s.cout = rng.range(1, 8);
    s.hin = rng.range(6, 18);
    s.win = rng.range(6, 18);  // non-square images
    const std::int64_t kernels[] = {1, 2, 3, 5};
    s.kh = kernels[rng.below(4)];
    s.kw = rng.below(4) == 0 ? kernels[rng.below(4)] : s.kh;  // non-square
    s.stride = rng.range(1, 2);
    s.pad = rng.below(2) == 0 ? 0 : std::min(s.kh, s.kw) / 2;
    if (rng.below(3) == 0) {  // grouped / depthwise
      const std::int64_t g = rng.below(2) == 0 ? 2 : 4;
      s.cin = ((s.cin + g - 1) / g) * g;
      s.cout = ((s.cout + g - 1) / g) * g;
      s.groups = g;
    }
    s.hin = std::max(s.hin, s.kh - 2 * s.pad);
    s.win = std::max(s.win, s.kw - 2 * s.pad);
    ASSERT_NO_THROW(s.validate()) << s.to_string();

    const ConvProblem p = make_problem(s, 1000 + trial);
    const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
    for (CandidateSet set : {CandidateSet::kOurs, CandidateSet::kBaseline}) {
      PlannerOptions opts;
      opts.candidates = set;
      opts.mode = PlanMode::kMeasured;
      const ConvPlan plan = planner.plan(gpu, s, opts);
      EXPECT_GT(plan.lower_bound_elems, 0) << plan.to_string();
      ConvExecutor::Execution ex =
          exec.execute(gpu, plan, p.input, p.weights);
      EXPECT_GT(ex.stats.sim_time, 0);
      EXPECT_TRUE(allclose(expect, ex.output.tensor(), 1e-3, 1e-3))
          << s.to_string() << " via " << plan.to_string() << " maxdiff="
          << max_abs_diff(expect, ex.output.tensor());
    }
  }
}

// ----------------------------------------------------- tune-cache path ---

TEST(Planner, WarmTuneCacheChangesPlanConfig) {
  SimGpu gpu(MachineSpec::v100());
  // Strided shape: only the tiled direct dataflow competes, so the plan's
  // config is exactly the tuned config.
  const ConvShape s = shape(8, 14, 16, 3, 2, 1);

  PlannerOptions opts;
  opts.mode = PlanMode::kTuned;
  opts.tune_budget = 8;
  opts.seed = 5;

  TuneCache cache;
  Planner cold_planner(&cache);
  const ConvPlan cold = cold_planner.plan(gpu, s, opts);
  EXPECT_TRUE(cold.tuned);
  // The autotuned result landed in the cache.
  const std::string key = TuneCache::make_key(gpu.spec(), s, false, 2);
  ASSERT_TRUE(cache.get(key).has_value());
  EXPECT_EQ(cache.get(key)->config, cold.config);

  // Warm the cache with a different (valid) configuration; a fresh planner
  // must emit it instead of re-tuning.
  ConvConfig custom;
  custom.x = custom.y = custom.z = 1;
  ASSERT_NE(custom, cold.config);
  cache.put(key, {custom, /*gflops=*/1e9});  // beats any real search
  Planner warm_planner(&cache);
  const ConvPlan warm = warm_planner.plan(gpu, s, opts);
  EXPECT_TRUE(warm.tuned);
  EXPECT_EQ(warm.config, custom);
}

TEST(Planner, MemoisesPlans) {
  SimGpu gpu(MachineSpec::v100());
  Planner planner;
  const ConvShape s = shape(4, 10, 4, 3, 1, 1);
  PlannerOptions opts;
  (void)planner.plan(gpu, s, opts);
  const std::size_t n = planner.plans_memoised();
  EXPECT_EQ(n, 1u);
  (void)planner.plan(gpu, s, opts);
  EXPECT_EQ(planner.plans_memoised(), n);  // hit, not a new entry
}

// Measured planning counts its candidates instead of executing them: for
// every layer of two models and both candidate sets, each candidate's score
// and feasibility are bit for bit what executing its plan reports.
TEST(Planner, MeasuredPlansAreCounted) {
  SimGpu gpu(MachineSpec::v100());
  Planner planner;
  std::set<std::string> seen;
  for (const auto& layers : {resnet18(1), mobilenet_v1(1)}) {
    for (const ConvLayer& layer : layers) {
      const ConvShape& s = layer.shape;
      if (!seen.insert(s.to_string()).second) continue;
      const ConvProblem prob = make_problem(s, 11);
      for (CandidateSet set : {CandidateSet::kOurs, CandidateSet::kBaseline}) {
        PlannerOptions opts;
        opts.mode = PlanMode::kMeasured;
        opts.candidates = set;
        for (const PlanCandidate& c : planner.enumerate(gpu, s, opts)) {
          SCOPED_TRACE(layer.name + " " + c.plan.to_string());
          Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
          LaunchStats run;
          bool threw = false;
          try {
            run = run_plan(gpu, c.plan, prob.input, prob.weights, out);
          } catch (const Error&) {
            threw = true;
          }
          EXPECT_EQ(c.infeasible, threw);
          if (!threw) {
            EXPECT_EQ(c.plan.predicted_seconds, run.sim_time);
            EXPECT_EQ(c.plan.predicted_seconds,
                      count_plan(gpu.spec(), c.plan, Layout::kNCHW).sim_time);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------- workspace -------

TEST(Workspace, PoolsByGeometryAndCountsReuse) {
  Workspace ws;
  {
    Workspace::Lease a = ws.acquire(1, 2, 3, 4);
    Workspace::Lease b = ws.acquire(1, 2, 3, 4);  // simultaneous -> 2nd slot
    EXPECT_EQ(ws.buffers(), 2u);
    EXPECT_EQ(ws.reuses(), 0u);
  }
  {
    Workspace::Lease c = ws.acquire(1, 2, 3, 4);  // pooled
    EXPECT_EQ(ws.buffers(), 2u);
    EXPECT_EQ(ws.reuses(), 1u);
    Workspace::Lease d = ws.acquire(2, 2, 3, 4);  // new geometry
    EXPECT_EQ(ws.buffers(), 3u);
  }
  EXPECT_EQ(ws.acquires(), 4u);
  EXPECT_GT(ws.bytes_reserved(), 0u);
}

// A second inference pass over the same model through one session plans
// nothing: every plan is memoised, none is re-planned or re-tuned, and the
// counted totals are equal.
TEST(InferenceSession, SecondPassPlansNothing) {
  SimGpu gpu(MachineSpec::v100());
  std::vector<ConvLayer> layers;
  layers.push_back({"l1", shape(4, 12, 8, 3, 1, 1)});
  layers.push_back({"l2", shape(8, 12, 8, 3, 2, 1)});

  InferenceSession session;
  const ModelReport first = run_model(gpu, "tiny", layers,
                                      ModelStrategy::kOursTuned, session,
                                      /*tune_budget=*/8);
  const std::size_t warm_plans = session.planner().plans_memoised();
  EXPECT_EQ(warm_plans, layers.size());

  const ModelReport second = run_model(gpu, "tiny", layers,
                                       ModelStrategy::kOursTuned, session,
                                       /*tune_budget=*/8);
  EXPECT_EQ(session.planner().plans_memoised(), warm_plans);  // plan-once
  EXPECT_DOUBLE_EQ(first.total_seconds, second.total_seconds);

  // The chosen plan is recorded per layer.
  for (const auto& l : second.layers) {
    EXPECT_EQ(l.plan.shape, l.shape);
    EXPECT_TRUE(l.plan.tuned);
    EXPECT_FALSE(l.algorithm.empty());
  }
}

// ---------------------------------------------------------- executor -----

TEST(RunPlan, DispatchesAllAlgorithms) {
  const ConvShape s = shape(4, 10, 4, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 77);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, s);
  SimGpu gpu(MachineSpec::v100());
  Planner planner;
  PlannerOptions opts;
  opts.force_e = 2;
  for (ConvAlgorithm algo :
       {ConvAlgorithm::kDirectTiled, ConvAlgorithm::kDirectNaive,
        ConvAlgorithm::kIm2col, ConvAlgorithm::kWinogradFused,
        ConvAlgorithm::kWinogradPhased}) {
    const ConvPlan plan = planner.plan_algorithm(gpu, s, {algo}, opts);
    EXPECT_EQ(plan.algorithm, algo);
    // A single algorithm is scored by its count too.
    EXPECT_EQ(plan.predicted_seconds,
              count_plan(gpu.spec(), plan, Layout::kNCHW).sim_time)
        << to_string(algo);
    Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
    const LaunchStats stats =
        run_plan(gpu, plan, prob.input, prob.weights, out);
    EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3)) << to_string(algo);
    EXPECT_GT(stats.sim_time, 0) << to_string(algo);
    EXPECT_EQ(count_plan(gpu.spec(), plan, Layout::kNCHW), stats)
        << to_string(algo);
  }
  // A single algorithm that cannot run the shape is an error, not a
  // fallback.
  EXPECT_THROW(planner.plan_algorithm(gpu, shape(4, 10, 4, 3, 2, 1),
                                      {ConvAlgorithm::kWinogradFused}, opts),
               Error);
}

// The naive baseline is the tiled dataflow at a fixed tile: its plan (and
// its candidate in a baseline ranking) carries that tile, and the Eq 20
// prediction is evaluated at it.
TEST(NaivePlan, CarriesFixedTileAndItsEquation20Prediction) {
  SimGpu gpu(MachineSpec::v100());
  Planner planner;
  PlannerOptions baseline;
  baseline.candidates = CandidateSet::kBaseline;
  for (const ConvShape& s : {shape(4, 10, 4, 3, 1, 1),     // 10x10 output
                             shape(8, 5, 8, 3, 1, 1, 4),   // 5x5, grouped
                             shape(16, 20, 32, 3, 2, 1)}) {  // stride 2
    SCOPED_TRACE(s.to_string());
    const ConvPlan plan = planner.plan_algorithm(
        gpu, s, {ConvAlgorithm::kDirectNaive}, PlannerOptions{});
    EXPECT_EQ(plan.config, naive_direct_config(s));
    EXPECT_EQ(plan.config.threads(), 64);
    EXPECT_EQ(plan.predicted_io_elems,
              direct_dataflow_reads(s, std::min<std::int64_t>(8, s.hout()),
                                    std::min<std::int64_t>(8, s.wout()), 1) +
                  static_cast<double>(s.output_elems()));
    int naive_candidates = 0;
    for (const PlanCandidate& c : planner.enumerate(gpu, s, baseline)) {
      if (c.plan.algorithm != ConvAlgorithm::kDirectNaive) continue;
      ++naive_candidates;
      EXPECT_EQ(c.plan.config, naive_direct_config(s));
      EXPECT_EQ(c.plan.predicted_io_elems, plan.predicted_io_elems);
    }
    EXPECT_EQ(naive_candidates, 1);
  }
}

// The paper's cuDNN baseline is a best-of over naive and im2col: the plan
// is whichever has the lower executed time (naive on ties), and grouped
// shapes, which im2col cannot run, plan naive.
TEST(BestOf, CudnnBaselinePairPlansTheFasterDirectKernel) {
  SimGpu gpu(MachineSpec::v100());
  Planner planner;
  for (const ConvShape& s : {shape(4, 8, 4, 3, 1, 1, 4),  // grouped
                             shape(8, 12, 8, 3, 1, 1),    // dense
                             shape(16, 20, 32, 3, 2, 1)}) {
    const ConvProblem p = make_problem(s, 73);
    const Tensor4<float> expect = conv2d_ref(p.input, p.weights, s);
    const ConvPlan plan =
        planner.plan_algorithm(gpu, s, kCudnnBaselinePair, PlannerOptions{});
    EXPECT_EQ(plan.predicted_seconds,
              count_plan(gpu.spec(), plan, Layout::kNCHW).sim_time);

    ConvAlgorithm want = ConvAlgorithm::kDirectNaive;
    if (s.groups == 1) {
      double t[2];
      for (int i = 0; i < 2; ++i) {
        Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
        t[i] = run_plan(gpu,
                        planner.plan_algorithm(gpu, s, {kCudnnBaselinePair[i]},
                                               PlannerOptions{}),
                        p.input, p.weights, out)
                   .sim_time;
      }
      if (t[1] < t[0]) want = ConvAlgorithm::kIm2col;
    }
    EXPECT_EQ(plan.algorithm, want) << s.to_string();

    Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
    run_plan(gpu, plan, p.input, p.weights, out);
    EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3)) << s.to_string();
  }
}

TEST(Executor, RunPlanMatchesLeasedExecution) {
  SimGpu gpu(MachineSpec::v100());
  const ConvShape s = shape(4, 11, 6, 3, 1, 1);
  Planner planner;
  const ConvPlan plan = planner.plan(gpu, s, PlannerOptions{});
  const ConvProblem p = make_problem(s, 9);

  Workspace ws;
  ConvExecutor exec(ws);
  ConvExecutor::Execution ex = exec.execute(gpu, plan, p.input, p.weights);

  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const LaunchStats stats = run_plan(gpu, plan, p.input, p.weights, out);
  EXPECT_DOUBLE_EQ(stats.sim_time, ex.stats.sim_time);
  EXPECT_TRUE(allclose(out, ex.output.tensor(), 0, 0));

  Tensor4<float> wrong(s.batch, s.cout + 1, s.hout(), s.wout());
  EXPECT_THROW(run_plan(gpu, plan, p.input, p.weights, wrong), Error);
}

}  // namespace
}  // namespace convbound
