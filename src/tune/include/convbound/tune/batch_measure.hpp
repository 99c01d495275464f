// The measurer every tuner runs on: it counts candidates instead of
// executing them.
//
// A simulated measurement is model_time of the launch geometry and the
// counted traffic and flops, and for the two tunable dataflows all of these
// are closed-form functions of (shape, config, input layout):
// direct_tiled_count and winograd_fused_count. So BatchMeasurer runs no
// kernel, needs no problem tensors and no threads, and still returns
// exactly what the executing ConvMeasurer returns, field for field and
// sim_time bit for bit (tune_parallel_test and fuzz_test's CountFuzz check
// it; ConvMeasurer remains the oracle).
#pragma once

#include "convbound/tune/measure.hpp"

namespace convbound {

class BatchMeasurer : public Measurer {
 public:
  /// `seed`, `workers` and `pool` are unused: a count reads no problem data
  /// and runs on the calling thread. They keep the constructor that callers
  /// of the former executing engine were written against.
  BatchMeasurer(const MachineSpec& spec, const SearchDomain& domain,
                std::uint64_t seed = 42, int workers = 0,
                ThreadPool* pool = nullptr);

  std::vector<Measurement> measure_batch(
      const std::vector<ConvConfig>& cfgs) override;

  const SearchDomain& domain() const override { return domain_; }
  std::uint64_t trials() const override { return trials_; }

 private:
  MachineSpec spec_;
  SearchDomain domain_;
  std::uint64_t trials_ = 0;
};

}  // namespace convbound
