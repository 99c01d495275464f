// Winograd convolution implementations (stride 1, square kernels).
#pragma once

#include "convbound/conv/conv_config.hpp"
#include "convbound/conv/winograd_transform.hpp"
#include "convbound/machine/sim_gpu.hpp"
#include "convbound/tensor/conv_shape.hpp"
#include "convbound/tensor/tensor.hpp"

namespace convbound {

/// Largest transformed-tile side a = e + r - 1 the fused kernel accepts: it
/// stages each a x a tile in a fixed 64-float register fragment.
/// make_winograd_transform itself builds transforms up to a = 10.
inline constexpr std::int64_t kMaxFusedWinogradTile = 8;

/// Host reference Winograd (correctness oracle for the simulated kernels,
/// itself validated against conv2d_ref in the test suite).
Tensor4<float> winograd_ref(const Tensor4<float>& input,
                            const Tensor4<float>& weights, const ConvShape& s,
                            std::int64_t e);

/// The paper's near I/O-optimal fused dataflow (Section 5.3): one block owns
/// an x*y*z output sub-block; per input channel it loads one input region
/// and z kernel slices, transforms on the fly, and accumulates the Pi
/// temporary arrays in shared memory; outputs are written exactly once.
/// cfg.x and cfg.y should be multiples of e (clamped/rounded otherwise).
LaunchStats winograd_fused_sim(SimGpu& gpu, const Tensor4<float>& input,
                               const Tensor4<float>& weights,
                               const ConvShape& s, std::int64_t e,
                               const ConvConfig& cfg, Tensor4<float>& out);

/// The LaunchStats winograd_fused_sim returns for `cfg` on an input stored
/// in `input`, in closed form, throwing Error exactly where the launch
/// would (see direct_tiled_count).
LaunchStats winograd_fused_count(const MachineSpec& spec, const ConvShape& s,
                                 std::int64_t e, const ConvConfig& cfg,
                                 Layout input);

/// cuDNN-style phased Winograd: four separate kernels materialising the
/// transformed kernels U, transformed inputs V and products M in global
/// memory, with a batched GEMM per transformed-tile position.
LaunchStats winograd_phased_sim(SimGpu& gpu, const Tensor4<float>& input,
                                const Tensor4<float>& weights,
                                const ConvShape& s, std::int64_t e,
                                Tensor4<float>& out);

}  // namespace convbound
