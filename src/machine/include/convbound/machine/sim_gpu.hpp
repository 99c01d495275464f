// Executable model of a two-level-memory accelerator.
//
// Kernels run real floating-point arithmetic on host threads (each thread
// drains contiguous block chunks like an SM drains a grid), but may only
// touch global buffers through the BlockContext load/store helpers, which
// (a) enforce the per-block shared-memory capacity S_b and (b) count every
// off-chip byte.
// The counted traffic is exactly the Q of the red-blue pebble game, which is
// what the paper's bounds and dataflow designs reason about.
//
// On-chip scratch rule: data that lives for a whole block (accumulators,
// staged tiles, kernel slices) is allocated only from the block's
// SharedMemory, so S_b is enforced. A kernel's local arrays are register
// fragments of a compile-time bound (direct-tiled's 16-channel chunk, fused
// Winograd's 8x8 tiles) that never outlive one step of the block body.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "convbound/machine/machine_spec.hpp"
#include "convbound/util/check.hpp"
#include "convbound/util/thread_pool.hpp"

namespace convbound {

/// Bump allocator standing in for one thread block's shared memory.
/// Allocation beyond the configured capacity throws — the simulator
/// physically enforces the tuning constraint x*y*z (+tiles) <= S_b. Every
/// buffer that lives for the whole block comes from here; a kernel may lay
/// out and reuse its allocations freely (e.g. stage outputs through an input
/// buffer it no longer needs), but never keeps block-lifetime data elsewhere.
class SharedMemory {
 public:
  explicit SharedMemory(std::size_t capacity_bytes)
      : buf_(capacity_bytes), used_(0) {}

  template <typename T>
  std::span<T> alloc(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    const std::size_t aligned = (used_ + alignof(T) - 1) & ~(alignof(T) - 1);
    CB_CHECK_MSG(aligned + bytes <= buf_.size(),
                 "shared memory overflow: need " << (aligned + bytes)
                                                 << " B, have " << buf_.size()
                                                 << " B");
    used_ = aligned + bytes;
    return {reinterpret_cast<T*>(buf_.data() + aligned), count};
  }

  void reset() { used_ = 0; }
  std::size_t used() const { return used_; }
  std::size_t capacity() const { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
  std::size_t used_;
};

/// Per-block execution context handed to kernels. Global memory is reached
/// only through its counted load/store helpers; on-chip state lives in
/// smem() or in compile-time-bounded local register fragments.
class BlockContext {
 public:
  BlockContext(std::int64_t block_id, SharedMemory& smem)
      : block_id_(block_id), smem_(smem) {}

  std::int64_t block_id() const { return block_id_; }
  SharedMemory& smem() { return smem_; }

  /// Counted contiguous load: global -> shared (or registers).
  template <typename T>
  void load(const T* global_src, T* dst, std::size_t count) {
    std::memcpy(dst, global_src, count * sizeof(T));
    bytes_loaded_ += count * sizeof(T);
  }

  /// Counted strided gather load (e.g. a 2-D tile out of a row-major image).
  template <typename T>
  void load_strided(const T* global_src, std::int64_t src_stride, T* dst,
                    std::size_t rows, std::size_t cols) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(dst + r * cols, global_src + static_cast<std::int64_t>(r) *
                                                   src_stride,
                  cols * sizeof(T));
    }
    bytes_loaded_ += rows * cols * sizeof(T);
  }

  /// Minimum off-chip transaction granularity. Gather accesses with an
  /// element stride > 1 over-fetch up to one transaction per element, which
  /// is how the tensor layout (Table 1's CHW/CWH/HWC knob) becomes visible
  /// to the tuner.
  static constexpr std::size_t kTransactionBytes = 32;

  template <typename T>
  static std::size_t gather_cost_bytes(std::int64_t elem_stride,
                                       std::size_t count) {
    const std::size_t per_elem =
        elem_stride == 1
            ? sizeof(T)
            : std::min<std::size_t>(
                  static_cast<std::size_t>(elem_stride < 0 ? -elem_stride
                                                           : elem_stride) *
                      sizeof(T),
                  kTransactionBytes);
    return count * per_elem;
  }

  /// Counted strided gather: dst[i] = global_src[i*elem_stride].
  template <typename T>
  void load_gather(const T* global_src, std::int64_t elem_stride, T* dst,
                   std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      dst[i] = global_src[static_cast<std::int64_t>(i) * elem_stride];
    bytes_loaded_ += gather_cost_bytes<T>(elem_stride, count);
  }

  /// Counted contiguous store: shared/registers -> global.
  template <typename T>
  void store(T* global_dst, const T* src, std::size_t count) {
    std::memcpy(global_dst, src, count * sizeof(T));
    bytes_stored_ += count * sizeof(T);
  }

  template <typename T>
  void store_one(T* global_dst, T value) {
    *global_dst = value;
    bytes_stored_ += sizeof(T);
  }

  /// Kernels self-report arithmetic (FMA = 2 FLOPs).
  void add_flops(std::uint64_t n) { flops_ += n; }

  /// Accounting-only transfer charge, for moves performed by surrounding
  /// scalar code (e.g. a transposing copy into shared memory).
  void charge_load(std::size_t bytes) { bytes_loaded_ += bytes; }

  std::uint64_t bytes_loaded() const { return bytes_loaded_; }
  std::uint64_t bytes_stored() const { return bytes_stored_; }
  std::uint64_t flops() const { return flops_; }

 private:
  std::int64_t block_id_;
  SharedMemory& smem_;
  std::uint64_t bytes_loaded_ = 0;
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t flops_ = 0;
};

/// How SimGpu::launch distributes blocks over host resources. The counted
/// traffic and the modelled time are identical in both modes — the knob only
/// decides which host threads do the arithmetic.
enum class ExecMode {
  /// Blocks cut into contiguous chunks (about four per pool thread) that
  /// the pool workers and the calling thread claim dynamically, so a launch
  /// from inside a pool task is safe. Default; right for running a single
  /// kernel as fast as possible.
  kStriped,
  /// All blocks drained on the calling thread. Used by the serving
  /// sessions, where each in-flight batch owns one worker thread, and as
  /// the serial oracle that tests and benchmarks re-measure against.
  kSerial,
};

/// Grid launcher: executes `kernel` once per block, on the calling thread
/// (kSerial) or in chunks across the pool and the caller (kStriped), and
/// aggregates counters + modelled time into LaunchStats.
class SimGpu {
 public:
  explicit SimGpu(MachineSpec spec, ThreadPool* pool = nullptr,
                  ExecMode mode = ExecMode::kStriped)
      : spec_(std::move(spec)),
        pool_(pool != nullptr ? pool : &ThreadPool::global()),
        mode_(mode) {}

  const MachineSpec& spec() const { return spec_; }
  ExecMode exec_mode() const { return mode_; }

  using Kernel = std::function<void(BlockContext&)>;

  /// Runs the grid. Blocks must write disjoint global outputs (as on a real
  /// GPU); the launcher does not serialise global stores.
  LaunchStats launch(const LaunchConfig& cfg, const Kernel& kernel);

 private:
  MachineSpec spec_;
  ThreadPool* pool_;
  ExecMode mode_;
};

}  // namespace convbound
