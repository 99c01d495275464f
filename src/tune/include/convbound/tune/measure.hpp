// The measurement interface every tuner talks to, and the executing
// measurer that runs the tunable kernel on the simulated machine and
// reports its modelled runtime.
#pragma once

#include <limits>
#include <vector>

#include "convbound/conv/algorithms.hpp"
#include "convbound/machine/sim_gpu.hpp"
#include "convbound/tune/domain.hpp"

namespace convbound {

struct Measurement {
  double seconds = std::numeric_limits<double>::infinity();
  LaunchStats stats;
  bool valid = false;
};

/// Interface every tuner talks to. The batch call is the primitive:
/// results[i] always corresponds to cfgs[i], so recording stays in proposal
/// order. Invalid configurations — e.g. a tile that overflows its declared
/// S_b — come back with valid == false and infinite time, exactly like a
/// failed on-device trial in TVM.
class Measurer {
 public:
  virtual ~Measurer() = default;

  virtual const SearchDomain& domain() const = 0;

  /// Measures a whole candidate batch; results align with cfgs by index.
  virtual std::vector<Measurement> measure_batch(
      const std::vector<ConvConfig>& cfgs) = 0;

  /// Convenience single-candidate measurement.
  virtual Measurement measure(const ConvConfig& cfg);

  /// Total candidates measured so far.
  virtual std::uint64_t trials() const = 0;

  /// GFLOP/s equivalent of a runtime for this problem.
  double gflops(double seconds) const {
    return static_cast<double>(domain().shape().flops()) / seconds / 1e9;
  }
};

/// Executing measurer: runs each candidate's kernel on `gpu` over problem
/// tensors generated once from the seed (one input per layout), into one
/// scratch output. The oracle the counting BatchMeasurer must agree with.
class ConvMeasurer : public Measurer {
 public:
  ConvMeasurer(SimGpu& gpu, const SearchDomain& domain,
               std::uint64_t seed = 42);

  Measurement measure(const ConvConfig& cfg) override;
  std::vector<Measurement> measure_batch(
      const std::vector<ConvConfig>& cfgs) override;

  std::uint64_t trials() const override { return trials_; }
  const SearchDomain& domain() const override { return domain_; }

 private:
  SimGpu& gpu_;
  SearchDomain domain_;
  Tensor4<float> weights_;
  std::vector<Tensor4<float>> inputs_;  // one per layout
  Tensor4<float> out_;
  std::uint64_t trials_ = 0;
};

}  // namespace convbound
