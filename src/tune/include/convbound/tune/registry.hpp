// Name-keyed tuner construction.
//
// Every search strategy is reachable through one factory and one options
// struct, so the CLI, the engine and the benches stop hard-coding
// constructor signatures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "convbound/tune/bnb.hpp"
#include "convbound/tune/tuners.hpp"

namespace convbound {

/// One options struct covering every registered tuner; each strategy reads
/// the fields it understands and ignores the rest. The random, sa, ga and
/// bnb batch/schedule parameters are constants of their tuner classes.
struct TunerOptions {
  std::uint64_t seed = 1;
  /// Configurations measured first (template-manager knowledge, e.g. the
  /// analytic default config); consumed by the seeding strategies (ate,
  /// bnb) and appended to their per-strategy seed lists.
  std::vector<ConvConfig> seeds;

  AteTuner::Params ate;
};

/// Factory keyed by registry id (bnb|ate|sa|ga|random); also accepts the
/// legacy display aliases ("simulated-annealing", "genetic", "ate(ours)",
/// "branch-and-bound"). Throws on unknown names, listing the valid ones.
std::unique_ptr<Tuner> make_tuner(const std::string& name,
                                  const TunerOptions& opts = {});

}  // namespace convbound
