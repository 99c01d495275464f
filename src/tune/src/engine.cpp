#include "convbound/tune/engine.hpp"

#include "convbound/tune/batch_measure.hpp"

namespace convbound {

AutotuneOutcome autotune_conv(SimGpu& gpu, const ConvShape& shape,
                              const AutotuneOptions& opts) {
  DomainOptions dopts;
  dopts.prune_with_optimality = opts.prune_with_optimality;
  dopts.winograd = opts.winograd;
  dopts.e = opts.e;
  SearchDomain domain = SearchDomain::build(shape, gpu.spec(), dopts);

  // Candidates are counted, not executed: the same measurements as the
  // executing ConvMeasurer, so the same trace for the same seed.
  BatchMeasurer measurer(gpu.spec(), domain);

  TunerOptions topts;
  topts.seed = opts.seed;
  topts.ate = opts.ate;
  // Seed the engine with the analytic dataflow default (Section 5's
  // optimality-condition configuration) — the template manager's knowledge.
  topts.seeds.push_back(opts.winograd
                            ? default_winograd_config(shape, opts.e,
                                                      gpu.spec())
                            : default_tiled_config(shape, gpu.spec()));

  const std::unique_ptr<Tuner> tuner = make_tuner(opts.tuner, topts);
  AutotuneOutcome out{tuner->run(measurer, opts.budget), std::move(domain),
                      0.0, tuner->stats(),
                      tuner->exhausted() && tuner->trials() > 0};
  if (out.result.best_seconds < 1e30)
    out.best_gflops = measurer.gflops(out.result.best_seconds);
  return out;
}

}  // namespace convbound
