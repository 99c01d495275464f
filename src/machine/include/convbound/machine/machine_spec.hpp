// Parameterised description of a two-level-memory accelerator.
//
// This is the "machine" of the red-blue pebble game: a pool of processors
// (SMs), each with a small fast memory (shared memory, the red pebbles), in
// front of an unbounded slow memory (global memory, the blue pebbles).
// Presets approximate the GPUs used in the paper's evaluation; absolute
// numbers are irrelevant to the reproduction (we compare shapes), but the
// ratios bandwidth:flops and the shared-memory capacities drive where the
// I/O-bound/compute-bound crossovers fall.
#pragma once

#include <cstdint>
#include <string>

namespace convbound {

struct MachineSpec {
  std::string name;
  int num_sms = 1;
  /// Fast-memory capacity per SM in bytes (the paper's S_sm).
  std::int64_t shared_mem_per_sm = 96 * 1024;
  /// Off-chip (global) memory bandwidth in bytes/second.
  double global_bw = 500e9;
  /// Peak single-precision throughput in FLOP/s (FMA = 2 FLOPs).
  double peak_flops = 10e12;
  /// Fixed cost charged per kernel launch, seconds.
  double launch_overhead = 4e-6;
  int max_threads_per_block = 1024;
  int max_blocks_per_sm = 16;

  /// Fast-memory capacity per SM in float elements (the theory's S).
  std::int64_t smem_floats() const {
    return shared_mem_per_sm / static_cast<std::int64_t>(sizeof(float));
  }

  // Presets used in the paper's evaluation (Section 7).
  static MachineSpec gtx1080ti();  // Pascal
  static MachineSpec titan_x();    // Maxwell
  static MachineSpec v100();       // Volta
  static MachineSpec gfx906();     // AMD Vega 20 (MIOpen platform)
  /// Tiny machine for unit tests (2 SMs, 4 KiB shared memory).
  static MachineSpec test_machine();

  // Synthetic heterogeneous-fleet presets. The evaluation GPUs all sit
  // within ~2x of each other in flops:bandwidth ratio; these two are pushed
  // to opposite corners so a cluster mixing them has genuinely different
  // best devices per workload — bandwidth-bound layers want `hbm`,
  // compute-bound layers want `dense` (the fig13 arch-sensitivity effect,
  // made extreme on purpose). Both use the same modest SM count so they
  // fill at test/bench problem scales and occupancy effects cancel: the
  // contrast is purely bandwidth vs flops.
  static MachineSpec bandwidth_optimized();  // "hbm": fat HBM, modest ALUs
  static MachineSpec compute_optimized();    // "dense": fat ALUs, thin bus
};

/// Preset lookup by short name: 1080ti|titanx|v100|gfx906|hbm|dense|test.
/// Throws on an unknown name (the message lists the valid ones). One
/// registry shared by the CLI, the cluster layer, and the benches.
MachineSpec spec_by_name(const std::string& name);

/// Resource footprint of one kernel launch, used by the timing model.
struct LaunchConfig {
  std::int64_t num_blocks = 1;
  int threads_per_block = 128;
  /// Shared memory requested per block in bytes (the paper's S_b).
  std::int64_t smem_bytes_per_block = 0;
};

/// Aggregate counters of one (or several, via +=) simulated kernel launches.
struct LaunchStats {
  std::uint64_t bytes_loaded = 0;  ///< global -> shared traffic
  std::uint64_t bytes_stored = 0;  ///< shared -> global traffic
  std::uint64_t flops = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t num_launches = 0;
  double sim_time = 0;  ///< modelled execution time, seconds

  std::uint64_t bytes_total() const { return bytes_loaded + bytes_stored; }
  /// Achieved throughput under the timing model, in GFLOP/s.
  double gflops() const {
    return sim_time > 0 ? static_cast<double>(flops) / sim_time / 1e9 : 0.0;
  }
  LaunchStats& operator+=(const LaunchStats& o) {
    bytes_loaded += o.bytes_loaded;
    bytes_stored += o.bytes_stored;
    flops += o.flops;
    num_blocks += o.num_blocks;
    num_launches += o.num_launches;
    sim_time += o.sim_time;
    return *this;
  }
  bool operator==(const LaunchStats&) const = default;
};

/// Deterministic roofline timing model.
///
/// Resources scale with how many SMs the launch keeps busy; a block only
/// fits on an SM when its shared-memory request fits, and an SM runs at full
/// tilt only with >= 128 resident threads. Wave quantisation (ceil division
/// of blocks into waves of concurrent blocks) is modelled because it is what
/// makes the paper's constraint S_b <= S_sm/2 (two blocks per SM) pay off.
double model_time(const MachineSpec& spec, const LaunchConfig& cfg,
                  std::uint64_t bytes, std::uint64_t flops);

/// The LaunchStats of one launch of `cfg` that counted this traffic and
/// arithmetic: SimGpu::launch returns it after running the blocks, and the
/// closed-form *_count functions return it without running anything.
/// Throws where model_time does.
LaunchStats launch_stats(const MachineSpec& spec, const LaunchConfig& cfg,
                         std::uint64_t bytes_loaded,
                         std::uint64_t bytes_stored, std::uint64_t flops);

}  // namespace convbound
