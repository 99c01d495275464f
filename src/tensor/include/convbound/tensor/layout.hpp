// Memory layouts for 4-D activation tensors.
//
// The paper's search domain (Table 1) includes the layout as a tunable
// parameter (CHW / CWH / HWC per image); with the batch dimension prepended
// these are NCHW, NCWH and NHWC.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace convbound {

enum class Layout : std::uint8_t { kNCHW, kNCWH, kNHWC };

/// Human-readable name ("NCHW", ...).
std::string to_string(Layout layout);

/// All supported layouts, for parameter sweeps.
inline constexpr std::array<Layout, 3> kAllLayouts = {
    Layout::kNCHW, Layout::kNCWH, Layout::kNHWC};

/// Row-major strides (in elements) of dimension order (n, c, h, w) for a
/// tensor of shape [n, c, h, w] stored in `layout`.
struct Strides4 {
  std::int64_t n, c, h, w;
};

Strides4 make_strides(Layout layout, std::int64_t n, std::int64_t c,
                      std::int64_t h, std::int64_t w);

}  // namespace convbound
