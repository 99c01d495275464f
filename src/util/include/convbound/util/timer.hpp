// Wall-clock timing helper (host time; the simulator has its own model time).
#pragma once

#include <chrono>

namespace convbound {

class WallTimer {
 public:
  /// Monotonic clock shared by every wall-time measurement in the repo
  /// (serving timestamps and trace events use the same clock, so their
  /// time points are directly comparable).
  using Clock = std::chrono::steady_clock;

  WallTimer() : start_(Clock::now()) {}
  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace convbound
