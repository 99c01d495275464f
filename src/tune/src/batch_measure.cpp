#include "convbound/tune/batch_measure.hpp"

#include <algorithm>

#include "convbound/util/check.hpp"

namespace convbound {

BatchMeasurer::BatchMeasurer(const MachineSpec& spec,
                             const SearchDomain& domain, std::uint64_t seed,
                             int workers, ThreadPool* pool)
    : domain_(domain),
      inputs_(MeasureInputs::create(domain, seed)),
      pool_(pool != nullptr ? pool : &ThreadPool::global()) {
  CB_CHECK_MSG(workers >= 0, "measurement workers must be >= 0 (0 = one per "
                             "pool thread), got " << workers);
  const std::size_t n = workers > 0 ? static_cast<std::size_t>(workers)
                                    : pool_->num_threads();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>(spec, domain_.shape(), pool_));
}

std::vector<Measurement> BatchMeasurer::measure_batch(
    const std::vector<ConvConfig>& cfgs) {
  std::vector<Measurement> results(cfgs.size());
  if (cfgs.empty()) return results;

  // One slot per replica in flight; each slot claims the next unmeasured
  // candidate until none is left, so an expensive candidate does not hold
  // back a static slice. Every result lands at its candidate's index, so the
  // outcome is independent of which slot measured what. A slot's striped
  // launches hand block chunks to whichever pool threads are idle.
  std::atomic<std::size_t> next{0};
  const std::size_t slots = std::min(workers_.size(), cfgs.size());
  pool_->parallel_for(0, slots, [&](std::size_t w) {
    Worker& wk = *workers_[w];
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < cfgs.size(); i = next.fetch_add(1, std::memory_order_relaxed))
      results[i] = measure_config(wk.gpu, domain_, *inputs_, wk.out, cfgs[i]);
  });
  trials_.fetch_add(cfgs.size(), std::memory_order_relaxed);
  return results;
}

}  // namespace convbound
