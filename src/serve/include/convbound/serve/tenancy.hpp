// Tenant / priority classes for the serving stack.
//
// A TenantClass names a traffic class and carries its SLO surface: a
// per-class latency budget (turned into an *effective deadline* at submit
// time — the class budget ANDed with any explicit request deadline) and a
// quota weight the admission controller uses to split queue capacity under
// overload. The first configured class is the catch-all default; requests
// with an empty or unknown tenant name land there, which keeps the whole
// layer invisible to single-tenant callers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "convbound/serve/request.hpp"

namespace convbound {

struct TenantClass {
  std::string name;
  /// Submit-to-start latency budget, seconds. <= 0, or more than the
  /// serving clock can represent past now, means unbounded: the request's
  /// own deadline (if any) is the only deadline. Must be finite.
  double latency_budget_seconds = 0;
  /// Weighted-fair share of queue capacity under overload. Shares are
  /// weight / sum(weights); must be > 0.
  double quota_weight = 1.0;
};

/// Immutable resolved view of a class list. Built once at server start;
/// lookups are read-only afterwards, so it is safe to share across threads.
class TenantTable {
 public:
  /// An empty `classes` list yields a single anonymous default class with
  /// no budget and weight 1 (the pre-tenancy behaviour). Validates names
  /// unique/non-empty (beyond the default), budgets finite and weights
  /// positive.
  explicit TenantTable(std::vector<TenantClass> classes = {});

  std::size_t size() const { return classes_.size(); }
  const TenantClass& cls(std::size_t i) const { return classes_[i]; }
  const std::vector<TenantClass>& classes() const { return classes_; }

  /// Class index for a tenant name; empty or unknown names resolve to the
  /// default class (index 0).
  std::size_t resolve(const std::string& tenant) const;

  /// The effective deadline of a request in class `i` enqueued at `now`:
  /// min(request deadline, now + class budget).
  ServeTimePoint effective_deadline(std::size_t i, ServeTimePoint now,
                                    ServeTimePoint request_deadline) const;

 private:
  std::vector<TenantClass> classes_;
};

}  // namespace convbound
