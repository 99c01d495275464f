// A tunable implementation configuration — the paper's Table 1 parameters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "convbound/tensor/conv_shape.hpp"
#include "convbound/tensor/layout.hpp"

namespace convbound {

/// One point of the configuration space searched by the auto-tuner.
/// x, y, z tile the output image along (H_out, W_out, C_out); nxt/nyt/nzt
/// partition the tile among threads; the layout selects the activation
/// storage order; smem_budget is the shared memory S_b granted per block.
struct ConvConfig {
  std::int64_t x = 1, y = 1, z = 1;
  int nxt = 1, nyt = 1, nzt = 1;
  Layout layout = Layout::kNCHW;
  /// S_b in bytes. 0 = derive from the kernel's actual footprint.
  std::int64_t smem_budget = 0;

  int threads() const { return nxt * nyt * nzt; }
  std::int64_t tile_elems() const { return x * y * z; }

  std::string to_string() const {
    return "cfg[x=" + std::to_string(x) + " y=" + std::to_string(y) +
           " z=" + std::to_string(z) + " t=" + std::to_string(nxt) + "x" +
           std::to_string(nyt) + "x" + std::to_string(nzt) +
           " layout=" + convbound::to_string(layout) +
           " smem=" + std::to_string(smem_budget) + "B]";
  }

  bool operator==(const ConvConfig&) const = default;

  /// Canonical compact key covering exactly the fields operator== compares,
  /// space-separated in declaration order.
  std::string key() const {
    return std::to_string(x) + ' ' + std::to_string(y) + ' ' +
           std::to_string(z) + ' ' + std::to_string(nxt) + ' ' +
           std::to_string(nyt) + ' ' + std::to_string(nzt) + ' ' +
           std::to_string(static_cast<int>(layout)) + ' ' +
           std::to_string(smem_budget);
  }

  /// operator==-consistent hash over the same fields.
  std::size_t hash() const {
    auto mix = [](std::size_t h, std::uint64_t v) {
      return h ^ (static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull +
                  (h << 6) + (h >> 2));
    };
    std::size_t h = mix(0, static_cast<std::uint64_t>(x));
    h = mix(h, static_cast<std::uint64_t>(y));
    h = mix(h, static_cast<std::uint64_t>(z));
    h = mix(h, static_cast<std::uint64_t>(nxt));
    h = mix(h, static_cast<std::uint64_t>(nyt));
    h = mix(h, static_cast<std::uint64_t>(nzt));
    h = mix(h, static_cast<std::uint64_t>(layout));
    h = mix(h, static_cast<std::uint64_t>(smem_budget));
    return h;
  }
};

/// Shared-memory footprint (bytes) of the direct tiled dataflow for `cfg`
/// on problem `s`: output tile + one input channel-slice tile + z kernel
/// slices (Section 5.2 with alpha = 1).
std::int64_t direct_tiled_smem_bytes(const ConvShape& s, const ConvConfig& cfg);

/// Shared-memory footprint of the fused Winograd dataflow (Section 5.3):
/// Pi accumulators (x*y*z*(a/e)^2) + input region + z kernel slices +
/// transformed-kernel cache + scratch.
std::int64_t winograd_fused_smem_bytes(const ConvShape& s, std::int64_t e,
                                       const ConvConfig& cfg);

}  // namespace convbound

template <>
struct std::hash<convbound::ConvConfig> {
  std::size_t operator()(const convbound::ConvConfig& c) const noexcept {
    return c.hash();
  }
};
