// The convolution algorithm enum, its capability query and the analytic
// default configurations of the tunable dataflows. Plans (the planner's
// output) name an algorithm; `run_plan` (plan/executor.hpp) is the one
// dispatch onto the kernels.
#pragma once

#include <string>

#include "convbound/conv/conv_config.hpp"
#include "convbound/conv/direct.hpp"
#include "convbound/conv/winograd.hpp"

namespace convbound {

enum class ConvAlgorithm {
  kDirectTiled,     ///< paper dataflow, Section 5.2 (tunable)
  kDirectNaive,     ///< tiled dataflow at a fixed 8x8x1 tile (baseline)
  kIm2col,          ///< im2col + GEMM (baseline component)
  kWinogradFused,   ///< paper dataflow, Section 5.3 (tunable)
  kWinogradPhased,  ///< cuDNN-style Winograd baseline
};

std::string to_string(ConvAlgorithm algo);

/// The centralized capability query: true when `algo` can run `s`. All
/// eligibility rules live here — Winograd needs a square 2..7 kernel,
/// stride 1 and groups == 1; im2col needs groups == 1; the direct paths
/// take anything. Callers (planner, CLI, benches) must not re-derive these.
bool algorithm_supports(ConvAlgorithm algo, const ConvShape& s);

/// Default untuned-but-sane config for the tiled dataflow: the optimality
/// condition tile x*y = R*z under the budget S_sm/(2 * elements).
ConvConfig default_tiled_config(const ConvShape& s, const MachineSpec& spec);

/// The cuDNN-like direct baseline's fixed configuration of the tiled
/// dataflow: 8x8 spatial tiles (clamped to the output), one output channel
/// per block (z = 1, so the input tile is re-read C_out times: no
/// output-channel reuse), 64 threads, S_b from the footprint. Not tunable.
ConvConfig naive_direct_config(const ConvShape& s);

/// Same for the fused Winograd dataflow (tile budget from Section 5.3).
ConvConfig default_winograd_config(const ConvShape& s, std::int64_t e,
                                   const MachineSpec& spec);

}  // namespace convbound
