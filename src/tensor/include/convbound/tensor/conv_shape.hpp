// Geometry of a 2-D convolution problem (the paper's Section 2.2 notation).
#pragma once

#include <cstdint>
#include <string>

#include "convbound/util/check.hpp"

namespace convbound {

struct ConvShape {
  std::int64_t batch = 1;
  std::int64_t cin = 1;
  std::int64_t hin = 1, win = 1;
  std::int64_t cout = 1;
  std::int64_t kh = 3, kw = 3;
  std::int64_t stride = 1;  ///< the paper's mu
  std::int64_t pad = 0;
  /// Channel groups; groups == cin == cout is a depthwise convolution
  /// (MobileNet / ShuffleNet style).
  std::int64_t groups = 1;

  std::int64_t hout() const { return (hin + 2 * pad - kh) / stride + 1; }
  std::int64_t wout() const { return (win + 2 * pad - kw) / stride + 1; }

  /// Input channels each output channel reads.
  std::int64_t cin_per_group() const { return cin / groups; }
  std::int64_t cout_per_group() const { return cout / groups; }

  /// Multiply-add pairs counted as 2 FLOPs, the convention used by the
  /// paper's GFlops numbers.
  std::int64_t flops() const {
    return 2 * batch * cout * hout() * wout() * cin_per_group() * kh * kw;
  }

  std::int64_t weight_elems() const {
    return cout * cin_per_group() * kh * kw;
  }
  std::int64_t output_elems() const { return batch * cout * hout() * wout(); }

  /// Maximum sliding-window reuse of one input element (Equation 13):
  /// R = Wker*Hker / mu^2.
  double reuse() const {
    return static_cast<double>(kh * kw) /
           static_cast<double>(stride * stride);
  }

  void validate() const {
    CB_CHECK_MSG(batch > 0 && cin > 0 && hin > 0 && win > 0 && cout > 0 &&
                     kh > 0 && kw > 0 && stride > 0 && pad >= 0 && groups > 0,
                 "invalid ConvShape " << to_string());
    CB_CHECK_MSG(hout() > 0 && wout() > 0,
                 "kernel larger than padded input: " << to_string());
    CB_CHECK_MSG(cin % groups == 0 && cout % groups == 0,
                 "groups must divide both channel counts: " << to_string());
  }

  std::string to_string() const {
    return "conv[b=" + std::to_string(batch) + " cin=" + std::to_string(cin) +
           " in=" + std::to_string(hin) + "x" + std::to_string(win) +
           " cout=" + std::to_string(cout) + " k=" + std::to_string(kh) +
           "x" + std::to_string(kw) + " s=" + std::to_string(stride) +
           " p=" + std::to_string(pad) +
           (groups > 1 ? " g=" + std::to_string(groups) : "") + "]";
  }

  bool operator==(const ConvShape&) const = default;
};

}  // namespace convbound
