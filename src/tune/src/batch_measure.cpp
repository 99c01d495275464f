#include "convbound/tune/batch_measure.hpp"

namespace convbound {

BatchMeasurer::BatchMeasurer(const MachineSpec& spec,
                             const SearchDomain& domain,
                             std::uint64_t /*seed*/, int /*workers*/,
                             ThreadPool* /*pool*/)
    : spec_(spec), domain_(domain) {}

std::vector<Measurement> BatchMeasurer::measure_batch(
    const std::vector<ConvConfig>& cfgs) {
  const ConvShape& s = domain_.shape();
  const DomainOptions& opts = domain_.options();
  std::vector<Measurement> results(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    try {
      const LaunchStats st =
          opts.winograd ? winograd_fused_count(spec_, s, opts.e, cfgs[i],
                                               cfgs[i].layout)
                        : direct_tiled_count(spec_, s, cfgs[i],
                                             cfgs[i].layout);
      results[i] = {st.sim_time, st, true};
    } catch (const Error&) {
      // The launch would have failed (S_b overflow, thread limit...).
    }
  }
  trials_ += cfgs.size();
  return results;
}

}  // namespace convbound
