// Measurement oracle shared by every tuner: runs the tunable kernel on the
// simulated machine and reports its modelled runtime.
#pragma once

#include <limits>
#include <memory>
#include <optional>
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

/// The immutable half of a measurement task: problem tensors generated once
/// from a seed and then only read. Shared (by const pointer) between every
/// worker of a batched measurement engine, so replicating workers costs no
/// extra tensor memory.
struct MeasureInputs {
  Tensor4<float> weights;
  std::vector<Tensor4<float>> inputs;  // one per layout

  static std::shared_ptr<const MeasureInputs> create(const SearchDomain& domain,
                                                     std::uint64_t seed);
};

/// Executes one configured kernel against shared inputs, writing into the
/// caller-owned scratch output. Deterministic: the simulator counts exact
/// integer traffic, so the result is bit-identical no matter which thread or
/// execution mode runs it. Invalid configurations — e.g. a tile that
/// overflows its declared S_b — come back with valid == false and infinite
/// time, exactly like a failed on-device trial in TVM.
Measurement measure_config(SimGpu& gpu, const SearchDomain& domain,
                           const MeasureInputs& inputs, Tensor4<float>& out,
                           const ConvConfig& cfg);

/// Interface every tuner talks to. The batch call is the primitive —
/// implementations may evaluate the candidates concurrently, but results[i]
/// always corresponds to cfgs[i], so recording stays in proposal order and
/// search traces are independent of the worker count.
class Measurer {
 public:
  virtual ~Measurer() = default;

  virtual const SearchDomain& domain() const = 0;

  /// Measures a whole candidate batch; results align with cfgs by index.
  virtual std::vector<Measurement> measure_batch(
      const std::vector<ConvConfig>& cfgs) = 0;

  /// Convenience single-candidate measurement.
  virtual Measurement measure(const ConvConfig& cfg);

  /// Total kernel executions performed so far.
  virtual std::uint64_t trials() const = 0;

  /// GFLOP/s equivalent of a runtime for this problem.
  double gflops(double seconds) const {
    return static_cast<double>(domain().shape().flops()) / seconds / 1e9;
  }
};

/// Serial measurer: one SimGpu (its blocks chunked over the pool), one
/// scratch output.
/// The reference implementation the batched engine must agree with.
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
  std::shared_ptr<const MeasureInputs> inputs_;
  Tensor4<float> out_;
  std::uint64_t trials_ = 0;
};

}  // namespace convbound
