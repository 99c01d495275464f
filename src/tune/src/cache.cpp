#include "convbound/tune/cache.hpp"

#include <sstream>

namespace convbound {

std::string TuneCache::make_key(const MachineSpec& spec,
                                const ConvShape& shape, bool winograd,
                                std::int64_t e) {
  std::ostringstream os;
  os << spec.name << ";" << (winograd ? "winograd" + std::to_string(e)
                                      : std::string("direct"))
     << ";" << shape.to_string();
  return os.str();
}

void TuneCache::put(const std::string& key, const Entry& entry) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || entry.gflops > it->second.gflops) {
    entries_[key] = entry;
  }
}

std::optional<TuneCache::Entry> TuneCache::get(const std::string& key) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::size_t TuneCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace convbound
