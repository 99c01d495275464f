// Search strategies over the configuration domain.
//
// RandomTuner / SimulatedAnnealingTuner / GeneticTuner reproduce the TVM
// searcher family the paper compares against (Figure 11); AteTuner is the
// paper's auto-tuning engine: a GBT cost model trained online plus n_s
// parallel random walks over the optimality-condition-pruned domain
// (Section 6.2-6.3). All tuners share one measurement oracle; "iterations"
// counts hardware (simulator) trials, the paper's cost unit.
//
// The interface is stepwise (see docs/tuning.md): run() drives
//
//   tuner.reset(domain);
//   loop: batch = tuner.propose_batch(remaining budget);
//         tuner.observe(batch, measurer.measure_batch(batch));
//
// and other callers (the perfbench tune workload) use the same three
// methods themselves. Proposals are generated serially from the tuner's RNG
// and recorded in proposal order, while the Measurer is free to evaluate
// each batch concurrently. The search trace is therefore a pure function of
// the seed: bit-identical whether batches run on one worker or many.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "convbound/ml/gbt.hpp"
#include "convbound/tune/measure.hpp"

namespace convbound {

struct TuneRecord {
  int trial = 0;                 ///< measurement index (1-based)
  ConvConfig config;
  double seconds = 0;            ///< this trial's runtime (inf when invalid)
  double best_seconds = 0;       ///< best runtime seen up to this trial
};

struct TuneResult {
  ConvConfig best;
  double best_seconds = std::numeric_limits<double>::infinity();
  std::vector<TuneRecord> history;

  /// First trial index that reached within `slack` of the final best.
  int trials_to_converge(double slack = 0.01) const;
};

/// Stepwise search strategy. Subclasses implement proposal generation
/// (propose_batch) and learning (on_observe); the base class owns the trace
/// and the incumbent.
class Tuner {
 public:
  virtual ~Tuner() = default;

  /// Human-facing name (figure legends).
  virtual std::string name() const = 0;

  /// Binds the tuner to a domain and clears all search state. The domain
  /// must outlive the tuner's stepping. Must be called before the first
  /// propose_batch().
  void reset(const SearchDomain& domain);

  /// Next measurement batch, at most `max_batch` configurations (callers
  /// pass the remaining budget). An empty batch means the search space is
  /// exhausted — the tuner will never propose again this run.
  virtual std::vector<ConvConfig> propose_batch(int max_batch) = 0;

  /// Records a measured batch (results align with cfgs by index) into the
  /// trace and feeds it to the strategy. Must receive exactly the batch the
  /// preceding propose_batch() returned.
  void observe(const std::vector<ConvConfig>& cfgs,
               const std::vector<Measurement>& ms);

  /// True once the strategy can prove no unexplored configuration remains
  /// (branch-and-bound: frontier empty). Sampling strategies never exhaust.
  virtual bool exhausted() const { return false; }

  /// Fresh search: reset(), then propose -> measure -> observe rounds until
  /// `budget` trials are measured or the strategy proposes nothing.
  TuneResult run(Measurer& measurer, int budget);

  const TuneResult& result() const { return res_; }
  int trials() const { return static_cast<int>(res_.history.size()); }

  /// Strategy-specific counters (branch-and-bound pruning stats); empty for
  /// strategies with nothing to report.
  virtual std::vector<std::pair<std::string, double>> stats() const {
    return {};
  }

 protected:
  const SearchDomain& domain() const;

  /// Strategy hooks: clear internals / learn from a measured batch.
  virtual void on_reset() = 0;
  virtual void on_observe(const std::vector<ConvConfig>& cfgs,
                          const std::vector<Measurement>& ms) = 0;

 private:
  const SearchDomain* domain_ = nullptr;
  TuneResult res_;
};

/// Uniform random sampling of the domain (TVM "random" baseline), proposed
/// in fixed-size batches. The trace is identical for any batch size because
/// samples are independent draws from one RNG stream.
class RandomTuner : public Tuner {
 public:
  /// Samples proposed per batch.
  static constexpr int kBatch = 16;

  explicit RandomTuner(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}
  std::string name() const override { return "random"; }
  std::vector<ConvConfig> propose_batch(int max_batch) override;

 protected:
  void on_reset() override { rng_ = Rng(seed_); }
  void on_observe(const std::vector<ConvConfig>&,
                  const std::vector<Measurement>&) override {}

 private:
  std::uint64_t seed_;
  Rng rng_;
};

/// Metropolis walk over lattice neighbours with geometric cooling (TVM
/// "simulated annealing" baseline), restructured as `chains` independent
/// restart chains. Each round every chain proposes one neighbour; the batch
/// is measured together and each chain then applies its own accept rule.
class SimulatedAnnealingTuner : public Tuner {
 public:
  /// Initial temperature, geometric cooling factor per round, and restart
  /// chains (= measurement batch) per round.
  static constexpr double kT0 = 1.0;
  static constexpr double kCooling = 0.98;
  static constexpr int kChains = 4;

  explicit SimulatedAnnealingTuner(std::uint64_t seed = 1)
      : seed_(seed), rng_(seed) {}
  std::string name() const override { return "simulated-annealing"; }
  std::vector<ConvConfig> propose_batch(int max_batch) override;

 protected:
  void on_reset() override;
  void on_observe(const std::vector<ConvConfig>& cfgs,
                  const std::vector<Measurement>& ms) override;

 private:
  struct Chain {
    Rng rng{0};
    ConvConfig cur;
    double cur_seconds = std::numeric_limits<double>::infinity();
    bool cur_valid = false;
  };

  std::uint64_t seed_;
  Rng rng_;

  std::vector<Chain> state_;
  double temp_ = 1.0;
  bool round0_done_ = false;
};

/// Tournament-selection genetic algorithm (TVM "GA" baseline), generational:
/// each generation breeds `population` children from the current pool, the
/// whole generation is measured as one batch, and (mu + lambda) elitism
/// forms the next pool.
class GeneticTuner : public Tuner {
 public:
  /// Children bred per generation (= measurement batch) and the per-child
  /// mutation probability.
  static constexpr int kPopulation = 16;
  static constexpr double kMutationRate = 0.3;

  explicit GeneticTuner(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}
  std::string name() const override { return "genetic"; }
  std::vector<ConvConfig> propose_batch(int max_batch) override;

 protected:
  void on_reset() override;
  void on_observe(const std::vector<ConvConfig>& cfgs,
                  const std::vector<Measurement>& ms) override;

 private:
  struct Individual {
    ConvConfig cfg;
    double fitness = 0;  // -runtime (higher is better); invalid = -inf
  };

  std::uint64_t seed_;
  Rng rng_;

  std::vector<Individual> pop_;
  bool init_done_ = false;
};

/// The paper's auto-tuning engine: (1) train the GBT cost model on all
/// measurements so far, (2) run n_s parallel random walks that only accept
/// moves with lower *predicted* cost (epsilon-greedy), (3) measure the n_s
/// most promising unmeasured endpoints as one batch, (4) repeat.
class AteTuner : public Tuner {
 public:
  struct Params {
    int ns = 8;              ///< parallel walks (= measurement batch) per round
    int walk_steps = 24;     ///< lattice steps per walk
    int warmup = 16;         ///< random measurements before the model kicks in
    double epsilon = 0.1;    ///< exploration probability per step
    GbtParams gbt;
    /// Template-manager knowledge: configurations measured first (e.g. the
    /// analytic default derived from the optimality condition).
    std::vector<ConvConfig> seeds;
  };
  explicit AteTuner(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}
  AteTuner(std::uint64_t seed, const Params& params)
      : seed_(seed), rng_(seed), params_(params) {}
  std::string name() const override { return "ate(ours)"; }
  std::vector<ConvConfig> propose_batch(int max_batch) override;

 protected:
  void on_reset() override;
  void on_observe(const std::vector<ConvConfig>& cfgs,
                  const std::vector<Measurement>& ms) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  Params params_;

  // Phases of the paper's loop: 0 = template seeds, 1 = random warm-up,
  // 2 = model-guided walks. The GBT refits on the training set (X_/y_)
  // every model-guided round.
  int phase_ = 0;
  std::vector<std::vector<double>> X_;
  std::vector<double> y_;  // log runtime (log compresses the dynamic range)
  std::unordered_set<ConvConfig> seen_;
  Gbt model_;
  std::unordered_map<ConvConfig, double> predicted_;  // model_'s, memoised
};

}  // namespace convbound
