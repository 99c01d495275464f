// Blocked GEMM on the simulated accelerator.
//
// Substrate for the im2col convolution baseline (the path cuDNN most often
// picks for "direct" convolution, per the paper's Section 7) and for the
// batched element-wise stage of phased Winograd.
#pragma once

#include <cstdint>

#include "convbound/machine/sim_gpu.hpp"

namespace convbound {

/// Host reference: C(m x n) = A(m x k) * B(k x n), row-major, C overwritten.
void gemm_ref(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

struct GemmConfig {
  std::int64_t tile_m = 64;
  std::int64_t tile_n = 64;
  std::int64_t tile_k = 32;
  int threads_per_block = 128;
};

/// Simulated blocked GEMM: each block stages A/B tiles through shared
/// memory, keeps its C tile on chip, and writes it exactly once.
LaunchStats gemm_sim(SimGpu& gpu, const float* a, const float* b, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t n,
                     const GemmConfig& cfg = {});

/// The LaunchStats gemm_sim returns for (m, k, n, cfg), in closed form: the
/// same launch geometry, every block streaming its A row slice and B column
/// slice once and storing its C tile once, and model_time on `spec`. Throws
/// Error exactly where the launch would (tiles above S_sm, threads out of
/// range, an empty dimension).
LaunchStats gemm_count(const MachineSpec& spec, std::int64_t m,
                       std::int64_t k, std::int64_t n,
                       const GemmConfig& cfg = {});

}  // namespace convbound
