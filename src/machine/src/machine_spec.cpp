#include "convbound/machine/machine_spec.hpp"

#include <algorithm>
#include <cmath>

#include "convbound/util/check.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

MachineSpec MachineSpec::gtx1080ti() {
  MachineSpec s;
  s.name = "GTX 1080 Ti (Pascal)";
  s.num_sms = 28;
  s.shared_mem_per_sm = 96 * 1024;
  s.global_bw = 484e9;
  s.peak_flops = 11.3e12;
  return s;
}

MachineSpec MachineSpec::titan_x() {
  MachineSpec s;
  s.name = "GTX Titan X (Maxwell)";
  s.num_sms = 24;
  s.shared_mem_per_sm = 96 * 1024;
  s.global_bw = 336e9;
  s.peak_flops = 6.7e12;
  return s;
}

MachineSpec MachineSpec::v100() {
  MachineSpec s;
  s.name = "Tesla V100 (Volta)";
  s.num_sms = 80;
  s.shared_mem_per_sm = 96 * 1024;
  s.global_bw = 900e9;
  s.peak_flops = 15.7e12;
  return s;
}

MachineSpec MachineSpec::gfx906() {
  MachineSpec s;
  s.name = "AMD gfx906 (Vega 20)";
  s.num_sms = 60;
  s.shared_mem_per_sm = 64 * 1024;
  s.global_bw = 1024e9;
  s.peak_flops = 13.4e12;
  return s;
}

MachineSpec MachineSpec::bandwidth_optimized() {
  MachineSpec s;
  s.name = "HBM-fat (bandwidth-optimized)";
  s.num_sms = 24;
  s.shared_mem_per_sm = 128 * 1024;
  s.global_bw = 3200e9;
  s.peak_flops = 8e12;
  s.launch_overhead = 1e-6;
  return s;
}

MachineSpec MachineSpec::compute_optimized() {
  MachineSpec s;
  s.name = "DenseCompute (flop-optimized)";
  s.num_sms = 24;
  s.shared_mem_per_sm = 64 * 1024;
  s.global_bw = 450e9;
  s.peak_flops = 40e12;
  s.launch_overhead = 1e-6;
  return s;
}

MachineSpec spec_by_name(const std::string& name) {
  if (name == "1080ti") return MachineSpec::gtx1080ti();
  if (name == "titanx") return MachineSpec::titan_x();
  if (name == "v100") return MachineSpec::v100();
  if (name == "gfx906") return MachineSpec::gfx906();
  if (name == "hbm") return MachineSpec::bandwidth_optimized();
  if (name == "dense") return MachineSpec::compute_optimized();
  if (name == "test") return MachineSpec::test_machine();
  CB_CHECK_MSG(false, "unknown machine '"
                          << name
                          << "' (1080ti|titanx|v100|gfx906|hbm|dense|test)");
  return {};
}

MachineSpec MachineSpec::test_machine() {
  MachineSpec s;
  s.name = "test machine";
  s.num_sms = 2;
  s.shared_mem_per_sm = 4 * 1024;
  s.global_bw = 1e9;
  s.peak_flops = 8e9;
  s.launch_overhead = 1e-6;
  return s;
}

double model_time(const MachineSpec& spec, const LaunchConfig& cfg,
                  std::uint64_t bytes, std::uint64_t flops) {
  CB_CHECK_MSG(cfg.num_blocks > 0, "launch with zero blocks");
  CB_CHECK_MSG(cfg.threads_per_block > 0 &&
                   cfg.threads_per_block <= spec.max_threads_per_block,
               "threads_per_block=" << cfg.threads_per_block);
  CB_CHECK_MSG(cfg.smem_bytes_per_block <= spec.shared_mem_per_sm,
               "block shared memory " << cfg.smem_bytes_per_block
                                      << " exceeds SM capacity "
                                      << spec.shared_mem_per_sm);

  // How many blocks can be resident on one SM at once.
  const std::int64_t by_smem =
      cfg.smem_bytes_per_block > 0
          ? spec.shared_mem_per_sm / cfg.smem_bytes_per_block
          : spec.max_blocks_per_sm;
  const std::int64_t blocks_per_sm =
      std::clamp<std::int64_t>(by_smem, 1, spec.max_blocks_per_sm);

  const std::int64_t slots = spec.num_sms * blocks_per_sm;
  const std::int64_t waves = ceil_div(cfg.num_blocks, slots);
  // Average concurrency over the launch (last, partially-filled wave drags
  // the average down — wave quantisation).
  const double active_blocks =
      static_cast<double>(cfg.num_blocks) / static_cast<double>(waves);
  // Blocks are distributed across SMs round-robin, so SMs fill up before
  // blocks stack on the same SM.
  const double busy_sms =
      std::min<double>(static_cast<double>(spec.num_sms), active_blocks);

  // An SM needs enough resident threads to hide latency; model saturation at
  // 128 threads/block (times resident blocks).
  const double resident_threads =
      static_cast<double>(cfg.threads_per_block) *
      std::min<double>(static_cast<double>(blocks_per_sm),
                       active_blocks / busy_sms);
  const double thread_eff = std::min(1.0, resident_threads / 128.0);

  const double sm_frac = busy_sms / static_cast<double>(spec.num_sms);
  const double bw = spec.global_bw * sm_frac * std::sqrt(thread_eff);
  const double peak = spec.peak_flops * sm_frac * thread_eff;

  const double t_mem = static_cast<double>(bytes) / bw;
  const double t_cmp = static_cast<double>(flops) / peak;
  return spec.launch_overhead + std::max(t_mem, t_cmp);
}

LaunchStats launch_stats(const MachineSpec& spec, const LaunchConfig& cfg,
                         std::uint64_t bytes_loaded,
                         std::uint64_t bytes_stored, std::uint64_t flops) {
  LaunchStats st;
  st.bytes_loaded = bytes_loaded;
  st.bytes_stored = bytes_stored;
  st.flops = flops;
  st.num_blocks = static_cast<std::uint64_t>(cfg.num_blocks);
  st.num_launches = 1;
  st.sim_time = model_time(spec, cfg, st.bytes_total(), flops);
  return st;
}

}  // namespace convbound
