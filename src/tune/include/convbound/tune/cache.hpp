// In-process memo of tuned configurations, keyed by (machine, algorithm,
// problem shape), so a process tunes each distinct layer once.
//
// Thread-safe: one cache may be shared by concurrent planners (the serving
// session pool tunes through a single process-wide cache). get() returns a
// copy; racing put()s keep the better-GFlops entry, so the outcome is
// order-independent.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "convbound/conv/conv_config.hpp"
#include "convbound/machine/machine_spec.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

class TuneCache {
 public:
  struct Entry {
    ConvConfig config;
    double gflops = 0;
  };

  /// Canonical lookup key for a tuning task.
  static std::string make_key(const MachineSpec& spec, const ConvShape& shape,
                              bool winograd, std::int64_t e);

  /// Inserts, or replaces an entry with lower GFlops.
  void put(const std::string& key, const Entry& entry);

  std::optional<Entry> get(const std::string& key) const;

  std::size_t size() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ CB_GUARDED_BY(mu_);
};

}  // namespace convbound
