#include "convbound/tune/engine.hpp"

#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/cache.hpp"

namespace convbound {

AutotuneOutcome autotune_conv(SimGpu& gpu, const ConvShape& shape,
                              const AutotuneOptions& opts) {
  DomainOptions dopts;
  dopts.prune_with_optimality = opts.prune_with_optimality;
  dopts.winograd = opts.winograd;
  dopts.e = opts.e;
  SearchDomain domain = SearchDomain::build(shape, gpu.spec(), dopts);
  const std::string key =
      TuneCache::make_key(gpu.spec(), shape, opts.winograd, opts.e);

  // Batched evaluation pipeline: up to `workers` machine replicas measure a
  // proposal batch concurrently, and their striped launches spread each
  // candidate's blocks, all on the caller's pool (so a bounded SimGpu pool
  // still caps CPU use). Traces are identical to the serial ConvMeasurer
  // path for the same seed.
  BatchMeasurer measurer(gpu.spec(), domain, opts.seed, opts.workers,
                         gpu.pool());

  TunerOptions topts;
  topts.seed = opts.seed;
  topts.ate = opts.ate;
  // Seed the engine with the analytic dataflow default (Section 5's
  // optimality-condition configuration) — the template manager's knowledge.
  topts.seeds.push_back(opts.winograd
                            ? default_winograd_config(shape, opts.e,
                                                      gpu.spec())
                            : default_tiled_config(shape, gpu.spec()));

  std::unique_ptr<Tuner> tuner;
  int resumed_from = 0;
  if (opts.resume) {
    CB_CHECK_MSG(!opts.checkpoint.empty(),
                 "resume requested without a checkpoint path");
    tuner = load_checkpoint_file(opts.checkpoint, domain, key, topts);
    resumed_from = tuner->trials();
  } else {
    tuner = make_tuner(opts.tuner, topts);
    tuner->reset(domain);
  }

  // Step loop with a checkpoint after every observed batch (a round
  // boundary, the only point the state format is defined at), so a killed
  // search loses at most its in-flight batch.
  while (tuner->step(measurer, opts.budget)) {
    if (!opts.checkpoint.empty())
      save_checkpoint_file(opts.checkpoint, *tuner, key, domain.size());
  }

  AutotuneOutcome out{tuner->result(), std::move(domain), 0.0,
                      tuner->stats(), resumed_from,
                      tuner->exhausted() && tuner->trials() > 0};
  if (out.result.best_seconds < 1e30)
    out.best_gflops = measurer.gflops(out.result.best_seconds);
  return out;
}

}  // namespace convbound
