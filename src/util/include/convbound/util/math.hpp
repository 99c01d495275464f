// Small integer/float math helpers shared across modules.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "convbound/util/check.hpp"

namespace convbound {

/// ceil(a / b) for positive integers.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Smallest multiple of `m` that is >= `a`.
constexpr std::int64_t round_up(std::int64_t a, std::int64_t m) {
  return ceil_div(a, m) * m;
}

/// All positive divisors of `n`, ascending.
inline std::vector<std::int64_t> divisors(std::int64_t n) {
  CB_CHECK(n > 0);
  std::vector<std::int64_t> lo, hi;
  for (std::int64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      lo.push_back(d);
      if (d != n / d) hi.push_back(n / d);
    }
  }
  lo.insert(lo.end(), hi.rbegin(), hi.rend());
  return lo;
}

}  // namespace convbound
