#include "convbound/tune/measure.hpp"

namespace convbound {

Measurement Measurer::measure(const ConvConfig& cfg) {
  return measure_batch({cfg}).front();
}

ConvMeasurer::ConvMeasurer(SimGpu& gpu, const SearchDomain& domain,
                           std::uint64_t seed)
    : gpu_(gpu), domain_(domain),
      weights_(domain.shape().cout, domain.shape().cin_per_group(),
               domain.shape().kh, domain.shape().kw),
      out_(domain.shape().batch, domain.shape().cout, domain.shape().hout(),
           domain.shape().wout()) {
  const ConvShape& s = domain.shape();
  Rng rng(seed);
  Tensor4<float> base(s.batch, s.cin, s.hin, s.win);
  base.fill_random(rng);
  weights_.fill_random(rng);
  inputs_.reserve(kAllLayouts.size());
  for (Layout l : kAllLayouts) inputs_.push_back(base.to_layout(l));
}

Measurement ConvMeasurer::measure(const ConvConfig& cfg) {
  ++trials_;
  Measurement m;
  const ConvShape& s = domain_.shape();
  const Tensor4<float>& input = inputs_[static_cast<std::size_t>(cfg.layout)];
  try {
    // Through a local: a launch that throws must leave m untouched.
    const LaunchStats st =
        domain_.options().winograd
            ? winograd_fused_sim(gpu_, input, weights_, s,
                                 domain_.options().e, cfg, out_)
            : direct_tiled_sim(gpu_, input, weights_, s, cfg, out_);
    m = {st.sim_time, st, true};
  } catch (const Error&) {
    // Configuration does not physically fit (S_b overflow, thread limit...).
  }
  return m;
}

std::vector<Measurement> ConvMeasurer::measure_batch(
    const std::vector<ConvConfig>& cfgs) {
  std::vector<Measurement> out;
  out.reserve(cfgs.size());
  for (const ConvConfig& cfg : cfgs) out.push_back(measure(cfg));
  return out;
}

}  // namespace convbound
