#include "convbound/tune/cache.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "convbound/tune/search_state.hpp"
#include "convbound/util/check.hpp"

namespace convbound {

TuneCache::TuneCache(const TuneCache& other) {
  MutexLock lock(other.mu_);
  entries_ = other.entries_;
}

TuneCache& TuneCache::operator=(const TuneCache& other) {
  if (this == &other) return *this;
  MutexPairLock lock(mu_, other.mu_);
  entries_ = other.entries_;
  return *this;
}

std::string TuneCache::make_key(const MachineSpec& spec,
                                const ConvShape& shape, bool winograd,
                                std::int64_t e) {
  std::ostringstream os;
  os << spec.name << ";" << (winograd ? "winograd" + std::to_string(e)
                                      : std::string("direct"))
     << ";" << shape.to_string();
  return os.str();
}

void TuneCache::put(const std::string& key, const Entry& entry, bool force) {
  CB_CHECK_MSG(key.find('|') == std::string::npos &&
                   key.find('\n') == std::string::npos,
               "cache key must not contain '|' or newlines");
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || force || entry.gflops > it->second.gflops) {
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

std::string TuneCache::serialize() const {
  std::ostringstream os;
  MutexLock lock(mu_);
  for (const auto& [key, e] : entries_) {
    // ConvConfig::key() is the canonical field order the parser below reads.
    os << key << '|' << e.config.key() << '|' << e.gflops << '\n';
  }
  return os.str();
}

TuneCache TuneCache::deserialize(const std::string& text) {
  TuneCache cache;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::size_t p1 = line.find('|');
    const std::size_t p2 = line.rfind('|');
    CB_CHECK_MSG(p1 != std::string::npos && p2 != p1,
                 "malformed cache line " << lineno);
    const std::string key = line.substr(0, p1);
    std::istringstream cfg_is(line.substr(p1 + 1, p2 - p1 - 1));
    Entry e;
    e.config = tunestate::read_config(cfg_is);
    std::string extra;
    CB_CHECK_MSG(!(cfg_is >> extra),
                 "extra token '" << extra << "' in config on cache line "
                                 << lineno);
    e.gflops = tunestate::parse_f64(line.substr(p2 + 1));
    CB_CHECK_MSG(std::isfinite(e.gflops),
                 "non-finite gflops on cache line " << lineno);
    cache.put(key, e, /*force=*/true);
  }
  return cache;
}

void TuneCache::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  CB_CHECK_MSG(out.good(), "cannot open cache file '" << path << "'");
  out << serialize();
  CB_CHECK_MSG(out.good(), "failed writing cache file '" << path << "'");
}

TuneCache TuneCache::load(const std::string& path) {
  std::ifstream in(path);
  CB_CHECK_MSG(in.good(), "cannot read cache file '" << path << "'");
  std::ostringstream os;
  os << in.rdbuf();
  return deserialize(os.str());
}

void TuneCache::merge(const TuneCache& other) {
  if (this == &other) return;
  // Copy the source under its own lock, then insert through put() so the
  // better-entry-wins rule applies without holding both locks at once.
  std::map<std::string, Entry> src;
  {
    MutexLock lock(other.mu_);
    src = other.entries_;
  }
  for (const auto& [key, e] : src) put(key, e);
}

}  // namespace convbound
