#include "convbound/tune/registry.hpp"

#include "convbound/util/check.hpp"

namespace convbound {

namespace {

std::string canonical_id(const std::string& name) {
  if (name == "random") return "random";
  if (name == "sa" || name == "simulated-annealing") return "sa";
  if (name == "ga" || name == "genetic") return "ga";
  if (name == "ate" || name == "ate(ours)") return "ate";
  if (name == "bnb" || name == "branch-and-bound") return "bnb";
  CB_CHECK_MSG(false, "unknown tuner '" << name
                                        << "' (bnb|ate|sa|ga|random)");
  return {};
}

}  // namespace

std::unique_ptr<Tuner> make_tuner(const std::string& name,
                                  const TunerOptions& opts) {
  const std::string id = canonical_id(name);
  if (id == "random")
    return std::make_unique<RandomTuner>(opts.seed);
  if (id == "sa")
    return std::make_unique<SimulatedAnnealingTuner>(opts.seed);
  if (id == "ga")
    return std::make_unique<GeneticTuner>(opts.seed);
  if (id == "ate") {
    AteTuner::Params params = opts.ate;
    params.seeds.insert(params.seeds.end(), opts.seeds.begin(),
                        opts.seeds.end());
    return std::make_unique<AteTuner>(opts.seed, params);
  }
  BnbOptions bnb;
  bnb.seeds = opts.seeds;
  return std::make_unique<BranchAndBoundTuner>(bnb);
}

}  // namespace convbound
