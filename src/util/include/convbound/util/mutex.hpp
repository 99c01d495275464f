#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "convbound/util/thread_annotations.hpp"

// Annotated mutex wrappers: the ONLY place in the repo where a raw
// std::mutex is locked (enforced by tools/lint_convbound.py). Clang's
// thread-safety analysis cannot see std::mutex/std::lock_guard (libstdc++
// carries no annotations), so every lock in the concurrency core goes
// through these types — that is what turns the documented locking protocols
// (docs/concurrency.md) into compile-checked ones.
//
// Usage mirrors the standard library:
//   Mutex mu_;                    // the capability
//   int x_ CB_GUARDED_BY(mu_);    // data it protects
//   MutexLock lock(mu_);          // std::lock_guard equivalent
//   UniqueLock lock(mu_);         // std::unique_lock equivalent (cv waits)
//   cv_.wait(lock);               // CondVar wraps std::condition_variable
//
// Condition-variable waits use explicit `while (!cond) cv_.wait(lock);`
// loops, never the predicate-lambda overloads: a lambda is a separate
// function to the analysis and would not inherit the held capability, so
// predicate bodies touching guarded members would (rightly) fail to check.

namespace convbound {

class CondVar;

// A std::mutex the thread-safety analysis can track.
class CB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CB_ACQUIRE() { mu_.lock(); }
  void unlock() CB_RELEASE() { mu_.unlock(); }

 private:
  friend class UniqueLock;
  std::mutex mu_;
};

// std::lock_guard equivalent.
class CB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// std::unique_lock equivalent, the lock CondVar waits on.
class CB_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) CB_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~UniqueLock() CB_RELEASE() = default;

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

// std::condition_variable over UniqueLock. Waits atomically release and
// re-acquire the underlying std::mutex; the analysis (like Abseil's) treats
// the capability as continuously held across the wait, which is sound for
// callers because the guarded state is only ever observed with the lock
// held on either side of the wait.
class CondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(UniqueLock& lock) { cv_.wait(lock.lock_); }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      UniqueLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& rel) {
    return cv_.wait_for(lock.lock_, rel);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace convbound
