#include "convbound/machine/sim_gpu.hpp"

#include "convbound/util/math.hpp"

namespace convbound {

LaunchStats SimGpu::launch(const LaunchConfig& cfg, const Kernel& kernel) {
  CB_CHECK(cfg.num_blocks > 0);
  CB_CHECK_MSG(cfg.smem_bytes_per_block <= spec_.shared_mem_per_sm,
               "requested S_b=" << cfg.smem_bytes_per_block
                                << " B > S_sm=" << spec_.shared_mem_per_sm);
  const std::size_t smem_bytes = static_cast<std::size_t>(
      cfg.smem_bytes_per_block > 0 ? cfg.smem_bytes_per_block
                                   : spec_.shared_mem_per_sm);

  // Drains blocks [lo, hi) on the calling thread, like one SM, into `c`.
  auto run_blocks = [&](std::int64_t lo, std::int64_t hi, LaunchStats& c) {
    SharedMemory smem(smem_bytes);
    for (std::int64_t b = lo; b < hi; ++b) {
      smem.reset();
      BlockContext ctx(b, smem);
      kernel(ctx);
      c.bytes_loaded += ctx.bytes_loaded();
      c.bytes_stored += ctx.bytes_stored();
      c.flops += ctx.flops();
    }
  };

  // Counter totals (and therefore the modelled time) are identical in both
  // modes: they are exact integer sums, independent of which thread ran
  // which block.
  LaunchStats stats;
  if (mode_ == ExecMode::kSerial) {
    run_blocks(0, cfg.num_blocks, stats);
  } else {
    // Contiguous chunks, a few per thread, claimed dynamically so a slow
    // chunk does not idle the rest. parallel_for runs chunks on the caller
    // too (a launch from inside a pool task cannot deadlock) and rethrows
    // the first error only after every chunk drained.
    const std::int64_t n = cfg.num_blocks;
    const std::int64_t len = ceil_div(
        n, std::min<std::int64_t>(
               n, 4 * static_cast<std::int64_t>(pool_->num_threads())));
    std::vector<LaunchStats> chunks(static_cast<std::size_t>(ceil_div(n, len)));
    pool_->parallel_for(0, chunks.size(), [&](std::size_t i) {
      const std::int64_t lo = static_cast<std::int64_t>(i) * len;
      run_blocks(lo, std::min(n, lo + len), chunks[i]);
    });
    for (const LaunchStats& c : chunks) stats += c;
  }
  return launch_stats(spec_, cfg, stats.bytes_loaded, stats.bytes_stored,
                      stats.flops);
}

}  // namespace convbound
