#include "convbound/tensor/layout.hpp"

#include "convbound/util/check.hpp"

namespace convbound {

std::string to_string(Layout layout) {
  switch (layout) {
    case Layout::kNCHW: return "NCHW";
    case Layout::kNCWH: return "NCWH";
    case Layout::kNHWC: return "NHWC";
  }
  return "?";
}

Strides4 make_strides(Layout layout, std::int64_t n, std::int64_t c,
                      std::int64_t h, std::int64_t w) {
  CB_CHECK(n > 0 && c > 0 && h > 0 && w > 0);
  Strides4 s{};
  switch (layout) {
    case Layout::kNCHW:
      s.w = 1; s.h = w; s.c = h * w; s.n = c * h * w;
      break;
    case Layout::kNCWH:
      s.h = 1; s.w = h; s.c = h * w; s.n = c * h * w;
      break;
    case Layout::kNHWC:
      s.c = 1; s.w = c; s.h = w * c; s.n = h * w * c;
      break;
  }
  return s;
}

}  // namespace convbound
