// Deterministic, fast pseudo-random generation (xoshiro256** + splitmix64).
//
// Every stochastic component in the library (tensor fills, tuner search,
// genetic mutation) takes an explicit `Rng&` so whole experiments replay
// bit-identically from a single seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace convbound {

/// xoshiro256** seeded via splitmix64. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    std::uint64_t x = seed;
    for (auto& si : s_) si = splitmix64(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) { return (*this)() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Derive an independent child stream (for per-thread determinism).
  Rng split() {
    std::uint64_t seed = (*this)();
    return Rng(seed);
  }

 private:
  static std::uint64_t splitmix64(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace convbound
