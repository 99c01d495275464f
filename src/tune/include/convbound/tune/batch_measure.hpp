// Batch-oriented, thread-pool-parallel measurement engine.
//
// The serial ConvMeasurer measures one candidate at a time, so tuning
// wall-clock scales linearly with the trial budget. BatchMeasurer adds a
// second parallelism axis: tuners hand over a whole proposal batch, and up to
// `workers` candidates are in flight at once, each on its own replica — a
// striped SimGpu on the measurer's pool plus a private scratch output — over
// shared immutable problem tensors. Slots claim candidates dynamically, and
// each candidate's block chunks go to whichever pool threads are idle, so a
// batch narrower than the pool (ATE's rounds often are) or one slow candidate
// still keeps every core busy. Counted traffic is an exact integer sum and
// results align with the proposal order by index, which keeps search traces
// bit-identical across worker counts.
#pragma once

#include <atomic>
#include <memory>

#include "convbound/tune/measure.hpp"
#include "convbound/util/thread_pool.hpp"

namespace convbound {

class BatchMeasurer : public Measurer {
 public:
  /// `workers` = number of measurement replicas, the most candidates in
  /// flight at once; 0 means one per pool thread, negative throws Error.
  /// `pool` (default: the process-global pool) runs both the candidate slots
  /// and each replica's striped launches.
  BatchMeasurer(const MachineSpec& spec, const SearchDomain& domain,
                std::uint64_t seed = 42, int workers = 0,
                ThreadPool* pool = nullptr);

  std::vector<Measurement> measure_batch(
      const std::vector<ConvConfig>& cfgs) override;

  const SearchDomain& domain() const override { return domain_; }
  std::uint64_t trials() const override {
    return trials_.load(std::memory_order_relaxed);
  }
  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  // Mutable per-worker scratch; everything a candidate evaluation writes.
  struct Worker {
    SimGpu gpu;
    Tensor4<float> out;
    Worker(const MachineSpec& spec, const ConvShape& s, ThreadPool* pool)
        : gpu(spec, pool, ExecMode::kStriped),
          out(s.batch, s.cout, s.hout(), s.wout()) {}
  };

  SearchDomain domain_;
  std::shared_ptr<const MeasureInputs> inputs_;
  std::vector<std::unique_ptr<Worker>> workers_;
  ThreadPool* pool_;
  std::atomic<std::uint64_t> trials_{0};
};

}  // namespace convbound
