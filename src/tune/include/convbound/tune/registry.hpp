// Name-keyed tuner construction and the on-disk checkpoint format.
//
// Every search strategy is reachable through one factory and one options
// struct, so the CLI, the engine and the benches stop hard-coding
// constructor signatures; the checkpoint file wraps Tuner::save_state()
// with the tuner id and the domain identity, so a resume can verify it is
// continuing the same search before replaying any state.
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

/// Canonical tuner ids, in presentation order: bnb, ate, sa, ga, random.
std::vector<std::string> tuner_names();

/// Factory keyed by Tuner::id(); also accepts the legacy display aliases
/// ("simulated-annealing", "genetic", "ate(ours)", "branch-and-bound").
/// Throws on unknown names, listing the valid ones.
std::unique_ptr<Tuner> make_tuner(const std::string& name,
                                  const TunerOptions& opts = {});

// ----------------------------------------------------------- checkpoints --
//
// File format (line-based, like the TuneCache text form):
//
//   convbound-checkpoint v1
//   key <TuneCache::make_key of the tuned problem>
//   domain-size <exact configuration count>
//   <Tuner::save_state() text, which starts "convbound-tuner-state v1">
//
// key + domain-size identify the search: a resume against a different
// shape, machine, dataflow or domain pruning flag fails loudly instead of
// replaying a foreign trace.

std::string serialize_checkpoint(const Tuner& tuner,
                                 const std::string& domain_key,
                                 std::uint64_t domain_size);

/// Rebuilds the checkpointed tuner (via make_tuner on the stored id, with
/// `opts` supplying the non-serialized strategy parameters) and restores
/// its state against `domain`. Throws if the stored key/size do not match.
std::unique_ptr<Tuner> load_checkpoint(const std::string& text,
                                       const SearchDomain& domain,
                                       const std::string& domain_key,
                                       const TunerOptions& opts = {});

/// serialize_checkpoint to `path` via write-temp + atomic rename, so a kill
/// mid-write leaves the previous checkpoint intact.
void save_checkpoint_file(const std::string& path, const Tuner& tuner,
                          const std::string& domain_key,
                          std::uint64_t domain_size);

/// Reads and load_checkpoint()s `path`; throws if the file is missing.
std::unique_ptr<Tuner> load_checkpoint_file(const std::string& path,
                                            const SearchDomain& domain,
                                            const std::string& domain_key,
                                            const TunerOptions& opts = {});

}  // namespace convbound
