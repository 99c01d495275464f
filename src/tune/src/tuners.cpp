#include "convbound/tune/tuners.hpp"

#include <algorithm>
#include <cmath>

#include "convbound/tune/features.hpp"

namespace convbound {

namespace {

/// Appends one measurement to the trace, updating the incumbent.
void record(TuneResult& res, const ConvConfig& cfg, const Measurement& m) {
  TuneRecord rec;
  rec.trial = static_cast<int>(res.history.size()) + 1;
  rec.config = cfg;
  rec.seconds = m.seconds;
  if (m.valid && m.seconds < res.best_seconds) {
    res.best_seconds = m.seconds;
    res.best = cfg;
  }
  rec.best_seconds = res.best_seconds;
  res.history.push_back(rec);
}

void trim(std::vector<ConvConfig>& batch, int max_batch) {
  if (static_cast<int>(batch.size()) > max_batch)
    batch.resize(static_cast<std::size_t>(std::max(0, max_batch)));
}

}  // namespace

int TuneResult::trials_to_converge(double slack) const {
  const double target = best_seconds * (1.0 + slack);
  for (const auto& rec : history) {
    if (rec.best_seconds <= target) return rec.trial;
  }
  return history.empty() ? 0 : history.back().trial;
}

// ------------------------------------------------------------- Tuner base --

void Tuner::reset(const SearchDomain& domain) {
  domain_ = &domain;
  res_ = {};
  on_reset();
}

const SearchDomain& Tuner::domain() const {
  CB_CHECK_MSG(domain_ != nullptr, "Tuner::reset() must run before stepping");
  return *domain_;
}

void Tuner::observe(const std::vector<ConvConfig>& cfgs,
                    const std::vector<Measurement>& ms) {
  CB_CHECK(cfgs.size() == ms.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) record(res_, cfgs[i], ms[i]);
  on_observe(cfgs, ms);
}

TuneResult Tuner::run(Measurer& measurer, int budget) {
  reset(measurer.domain());
  for (int remaining = budget; remaining > 0; remaining = budget - trials()) {
    const std::vector<ConvConfig> batch = propose_batch(remaining);
    if (batch.empty()) break;
    CB_CHECK_MSG(static_cast<int>(batch.size()) <= remaining,
                 "propose_batch() exceeded the remaining budget");
    observe(batch, measurer.measure_batch(batch));
  }
  return res_;
}

// ------------------------------------------------------------ RandomTuner --

std::vector<ConvConfig> RandomTuner::propose_batch(int max_batch) {
  const int n = std::min(kBatch, max_batch);
  std::vector<ConvConfig> batch;
  batch.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) batch.push_back(domain().sample(rng_));
  return batch;
}

// ------------------------------------------------ SimulatedAnnealingTuner --

void SimulatedAnnealingTuner::on_reset() {
  rng_ = Rng(seed_);
  state_.clear();
  temp_ = kT0;
  round0_done_ = false;
}

std::vector<ConvConfig> SimulatedAnnealingTuner::propose_batch(int max_batch) {
  std::vector<ConvConfig> props;
  if (state_.empty()) {
    // Round 0: independent per-chain RNG streams derived deterministically
    // from the tuner seed; chain count never depends on the measurer's
    // worker count. (max_batch == the full budget on the first round.)
    const int nchains = std::max(1, std::min(kChains, max_batch));
    state_.reserve(static_cast<std::size_t>(nchains));
    for (int c = 0; c < nchains; ++c) {
      Chain ch;
      ch.rng = rng_.split();
      state_.push_back(std::move(ch));
    }
    for (Chain& ch : state_) props.push_back(domain().sample(ch.rng));
  } else {
    for (Chain& ch : state_) {
      const auto moves = domain().neighbors(ch.cur);
      props.push_back(moves.empty() ? domain().sample(ch.rng)
                                    : moves[ch.rng.below(moves.size())]);
    }
  }
  trim(props, max_batch);
  return props;
}

void SimulatedAnnealingTuner::on_observe(const std::vector<ConvConfig>& cfgs,
                                         const std::vector<Measurement>& ms) {
  if (!round0_done_) {
    // Every chain adopts its starting point unconditionally (chains past a
    // budget-trimmed batch keep their invalid default state).
    for (std::size_t c = 0; c < ms.size(); ++c) {
      state_[c].cur = cfgs[c];
      state_[c].cur_seconds = ms[c].seconds;
      state_[c].cur_valid = ms[c].valid;
    }
    round0_done_ = true;
    return;
  }
  for (std::size_t c = 0; c < ms.size(); ++c) {
    Chain& ch = state_[c];
    const Measurement& nm = ms[c];
    bool accept = false;
    if (nm.valid && (!ch.cur_valid || nm.seconds <= ch.cur_seconds)) {
      accept = true;
    } else if (nm.valid && ch.cur_valid) {
      const double delta = (nm.seconds - ch.cur_seconds) / ch.cur_seconds;
      accept = ch.rng.uniform() < std::exp(-delta / std::max(1e-6, temp_));
    }
    if (accept) {
      ch.cur = cfgs[c];
      ch.cur_seconds = nm.seconds;
      ch.cur_valid = nm.valid;
    }
  }
  temp_ *= kCooling;
}

// ----------------------------------------------------------- GeneticTuner --

void GeneticTuner::on_reset() {
  rng_ = Rng(seed_);
  pop_.clear();
  init_done_ = false;
}

std::vector<ConvConfig> GeneticTuner::propose_batch(int max_batch) {
  std::vector<ConvConfig> props;
  if (pop_.empty()) {
    // An empty pool after initialisation means nothing to breed from
    // (population 0); the historical loop stopped there too.
    if (init_done_) return {};
    // Initial generation (max_batch == the full budget on the first round).
    const int init = std::min(kPopulation, max_batch);
    props.reserve(static_cast<std::size_t>(init));
    for (int i = 0; i < init; ++i) props.push_back(domain().sample(rng_));
    return props;
  }

  auto tournament = [&]() -> const Individual& {
    const Individual& a = pop_[rng_.below(pop_.size())];
    const Individual& b = pop_[rng_.below(pop_.size())];
    return a.fitness >= b.fitness ? a : b;
  };
  auto crossover = [&](const ConvConfig& a, const ConvConfig& b) {
    ConvConfig c = a;
    if (rng_.uniform() < 0.5) { c.x = b.x; c.nxt = b.nxt; }
    if (rng_.uniform() < 0.5) { c.y = b.y; c.nyt = b.nyt; }
    if (rng_.uniform() < 0.5) { c.z = b.z; c.nzt = b.nzt; }
    if (rng_.uniform() < 0.5) c.layout = b.layout;
    if (rng_.uniform() < 0.5) c.smem_budget = b.smem_budget;
    return c;
  };

  const int n = std::min(kPopulation, max_batch);
  props.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ConvConfig child = crossover(tournament().cfg, tournament().cfg);
    if (rng_.uniform() < kMutationRate) {
      const auto moves = domain().neighbors(child);
      if (!moves.empty()) child = moves[rng_.below(moves.size())];
    }
    if (!domain().contains(child)) child = domain().sample(rng_);
    props.push_back(child);
  }
  return props;
}

void GeneticTuner::on_observe(const std::vector<ConvConfig>& cfgs,
                              const std::vector<Measurement>& ms) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    pop_.push_back(
        {cfgs[i], ms[i].valid ? -ms[i].seconds
                              : -std::numeric_limits<double>::infinity()});
  }
  if (!init_done_) {
    // The initial pool enters unsorted (seniority order), as the paper's
    // generational loop only ranks once breeding starts.
    init_done_ = true;
    return;
  }
  // (mu + lambda) elitism; stable so equal-fitness ties keep seniority.
  std::stable_sort(pop_.begin(), pop_.end(),
                   [](const Individual& a, const Individual& b) {
                     return a.fitness > b.fitness;
                   });
  if (static_cast<int>(pop_.size()) > kPopulation)
    pop_.resize(static_cast<std::size_t>(kPopulation));
}

// --------------------------------------------------------------- AteTuner --

void AteTuner::on_reset() {
  rng_ = Rng(seed_);
  phase_ = 0;
  X_.clear();
  y_.clear();
  seen_.clear();
  model_ = Gbt();
  predicted_.clear();
}

std::vector<ConvConfig> AteTuner::propose_batch(int max_batch) {
  // Template-provided seeds first (snapped into the domain's S_b lattice),
  // then random warm-up (the paper's "n_s random configurations are chosen
  // as initial guesses"). Empty phases fall straight through so an empty
  // proposal always means "exhausted", never "between phases".
  if (phase_ == 0) {
    phase_ = 1;
    std::vector<ConvConfig> batch;
    std::unordered_set<ConvConfig> pending;
    for (ConvConfig seed : params_.seeds) {
      if (seed.smem_budget == 0 && !domain().smem_choices().empty()) {
        seed.smem_budget = domain().smem_choices().front();
      }
      if (pending.insert(seed).second) batch.push_back(seed);
    }
    trim(batch, max_batch);
    if (!batch.empty()) return batch;
  }
  if (phase_ == 1) {
    // Equivalent to the historical warm = min(warmup, budget) top-up:
    // max_batch is the remaining budget, so the cap applies either way.
    const int n = std::min(params_.warmup - trials(), max_batch);
    if (n > 0) {
      std::vector<ConvConfig> batch;
      batch.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) batch.push_back(domain().sample(rng_));
      return batch;
    }
    phase_ = 2;
  }

  if (X_.size() >= 4) {
    model_.fit(X_, y_, params_.gbt);
    predicted_.clear();
  }
  // Walks revisit configs (and each other's), so every prediction of this
  // fitted model is computed once.
  auto predict = [&](const ConvConfig& cfg) {
    if (!model_.trained()) return 0.0;
    const auto [it, fresh] = predicted_.try_emplace(cfg, 0.0);
    if (fresh) it->second = model_.predict(config_features(domain(), cfg));
    return it->second;
  };

  // n_s parallel random walks, each converging toward lower predicted cost
  // (epsilon-greedy downhill walk on the lattice). Proposals come from the
  // single tuner RNG, in a fixed order.
  const TuneResult& res = result();
  std::vector<std::pair<double, ConvConfig>> candidates;
  for (int w = 0; w < params_.ns; ++w) {
    ConvConfig cur = res.best_seconds < 1e30 && rng_.uniform() < 0.5
                         ? res.best
                         : domain().sample(rng_);
    double cur_cost = predict(cur);
    // The neighbour list changes only when the walk moves.
    std::vector<ConvConfig> moves = domain().neighbors(cur);
    for (int step = 0; step < params_.walk_steps; ++step) {
      if (moves.empty()) break;
      const ConvConfig next = moves[rng_.below(moves.size())];
      const double next_cost = predict(next);
      if (next_cost <= cur_cost || rng_.uniform() < params_.epsilon) {
        cur = next;
        cur_cost = next_cost;
        if (step + 1 < params_.walk_steps) moves = domain().neighbors(cur);
      }
    }
    candidates.emplace_back(cur_cost, cur);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  // Measure the most promising unseen endpoints as one batch; if every walk
  // landed on a known config, inject fresh randomness instead.
  std::vector<ConvConfig> batch;
  std::unordered_set<ConvConfig> pending;
  for (const auto& [cost, cfg] : candidates) {
    if (seen_.count(cfg) || !pending.insert(cfg).second) continue;
    batch.push_back(cfg);
  }
  trim(batch, max_batch);
  if (batch.empty()) batch.push_back(domain().sample(rng_));
  return batch;
}

void AteTuner::on_observe(const std::vector<ConvConfig>& cfgs,
                          const std::vector<Measurement>& ms) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    seen_.insert(cfgs[i]);
    if (ms[i].valid) {
      X_.push_back(config_features(domain(), cfgs[i]));
      y_.push_back(std::log(ms[i].seconds));
    }
  }
}

}  // namespace convbound
