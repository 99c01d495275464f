// Direct-convolution implementations on the simulated accelerator.
#pragma once

#include "convbound/conv/conv_config.hpp"
#include "convbound/machine/sim_gpu.hpp"
#include "convbound/tensor/conv_shape.hpp"
#include "convbound/tensor/tensor.hpp"

namespace convbound {

/// The paper's near I/O-optimal dataflow (Section 5.2): one block owns an
/// x*y*z output sub-block held entirely in shared memory; an x'*y' input
/// tile slides along the channel direction (alpha = 1); inputs and weights
/// are read exactly once per block and outputs are written exactly once.
/// `out` must be pre-shaped [batch, cout, hout, wout] NCHW. The cuDNN-like
/// direct baseline is this same kernel at naive_direct_config (algorithms.hpp):
/// a fixed 8x8x1 tile with no output-channel reuse.
LaunchStats direct_tiled_sim(SimGpu& gpu, const Tensor4<float>& input,
                             const Tensor4<float>& weights,
                             const ConvShape& s, const ConvConfig& cfg,
                             Tensor4<float>& out);

/// The LaunchStats direct_tiled_sim returns for `cfg` on an input stored in
/// `input`, in closed form: the same launch geometry, the counted traffic
/// and flops summed per grid axis, and model_time on `spec`. Throws Error
/// exactly where the launch would (S_b above S_sm, a clamped-tile footprint
/// above a nonzero smem_budget, threads out of range, a bad shape or tile).
LaunchStats direct_tiled_count(const MachineSpec& spec, const ConvShape& s,
                               const ConvConfig& cfg, Layout input);

/// im2col + blocked GEMM, the path cuDNN usually prefers for direct
/// convolution (paper Section 7). The column matrix is materialised in
/// global memory (counted), then multiplied by the weight matrix.
LaunchStats im2col_sim(SimGpu& gpu, const Tensor4<float>& input,
                       const Tensor4<float>& weights, const ConvShape& s,
                       Tensor4<float>& out);

}  // namespace convbound
