// Reusable buffer arena for plan execution.
//
// Repeated executions of the same plans (model inference passes, serving
// traffic, bench loops) should do zero per-call output/scratch allocation:
// the executor leases pre-shaped tensors from a Workspace, which grows only
// while it sees new geometries and afterwards serves every acquire from the
// pool. Counters expose exactly that steady-state property so tests can
// assert it.
//
// Thread-safe: acquire/release and the counters are internally
// synchronized, so observers (serving stats) may read while executors
// lease. The *contents* of a leased tensor still belong to exactly one
// execution stream at a time — the lease is the ownership token, like a
// cuDNN handle's workspace pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "convbound/tensor/tensor.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

class Workspace {
  struct Slot {
    Tensor4<float> tensor;
    /// Atomic so Lease release (lock-free) can race the pool scan (which
    /// runs under the workspace mutex).
    std::atomic<bool> in_use{false};
    Slot(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
         Layout layout)
        : tensor(n, c, h, w, layout) {}
  };

 public:
  /// Move-only handle to a pooled tensor; returns the buffer to the pool on
  /// destruction. Contents are unspecified on acquisition (kernels write
  /// every output element).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : slot_(o.slot_) { o.slot_ = nullptr; }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        slot_ = o.slot_;
        o.slot_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    Tensor4<float>& tensor() {
      CB_CHECK_MSG(slot_ != nullptr, "empty workspace lease");
      return slot_->tensor;
    }
    explicit operator bool() const { return slot_ != nullptr; }

   private:
    friend class Workspace;
    explicit Lease(Slot* slot) : slot_(slot) {}
    void release() {
      if (slot_ != nullptr) slot_->in_use.store(false, std::memory_order_release);
      slot_ = nullptr;
    }
    Slot* slot_ = nullptr;
  };

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Leases a tensor of the requested geometry, reusing an idle pooled
  /// buffer when one matches; allocates (and remembers) a new one otherwise.
  Lease acquire(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
                Layout layout = Layout::kNCHW);

  /// Distinct buffers ever allocated. Constant once the workspace has seen
  /// every geometry of a workload — the zero-steady-state-allocation
  /// property the executor relies on.
  std::size_t buffers() const;
  /// Total acquire() calls.
  std::uint64_t acquires() const;
  /// acquire() calls served from the pool without allocating.
  std::uint64_t reuses() const;
  /// Bytes held by all pooled buffers (leased or idle).
  std::uint64_t bytes_reserved() const;

 private:
  mutable Mutex mu_;
  /// The slot *vector* (and the counters) are guarded; each Slot's in_use
  /// bit is an atomic precisely so Lease::release() — which holds no lock —
  /// can hand the buffer back while acquire() scans under mu_ (the
  /// release/acquire pair orders the tensor contents hand-off).
  std::vector<std::unique_ptr<Slot>> slots_ CB_GUARDED_BY(mu_);
  std::uint64_t acquires_ CB_GUARDED_BY(mu_) = 0;
  std::uint64_t reuses_ CB_GUARDED_BY(mu_) = 0;
};

}  // namespace convbound
