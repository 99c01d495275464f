#include "convbound/plan/workspace.hpp"

namespace convbound {

Workspace::Lease Workspace::acquire(std::int64_t n, std::int64_t c,
                                    std::int64_t h, std::int64_t w,
                                    Layout layout) {
  CB_CHECK_MSG(n > 0 && c > 0 && h > 0 && w > 0,
               "workspace acquire with non-positive geometry");
  MutexLock lock(mu_);
  ++acquires_;
  for (auto& slot : slots_) {
    const Tensor4<float>& t = slot->tensor;
    if (t.n() == n && t.c() == c && t.h() == h && t.w() == w &&
        t.layout() == layout &&
        !slot->in_use.exchange(true, std::memory_order_acquire)) {
      ++reuses_;
      return Lease(slot.get());
    }
  }
  slots_.push_back(std::make_unique<Slot>(n, c, h, w, layout));
  slots_.back()->in_use.store(true, std::memory_order_relaxed);
  return Lease(slots_.back().get());
}

std::size_t Workspace::buffers() const {
  MutexLock lock(mu_);
  return slots_.size();
}

std::uint64_t Workspace::acquires() const {
  MutexLock lock(mu_);
  return acquires_;
}

std::uint64_t Workspace::reuses() const {
  MutexLock lock(mu_);
  return reuses_;
}

std::uint64_t Workspace::bytes_reserved() const {
  MutexLock lock(mu_);
  std::uint64_t bytes = 0;
  for (const auto& slot : slots_) bytes += slot->tensor.size_bytes();
  return bytes;
}

}  // namespace convbound
