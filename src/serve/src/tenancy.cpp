#include "convbound/serve/tenancy.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "convbound/util/check.hpp"

namespace convbound {

TenantTable::TenantTable(std::vector<TenantClass> classes)
    : classes_(std::move(classes)) {
  if (classes_.empty()) {
    // Pre-tenancy behaviour: one anonymous class, no budget, weight 1.
    classes_.push_back(TenantClass{});
  }
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const TenantClass& c = classes_[i];
    CB_CHECK_MSG(std::isfinite(c.latency_budget_seconds),
                 "tenant class '" << c.name << "' has non-finite latency "
                 "budget " << c.latency_budget_seconds);
    CB_CHECK_MSG(c.quota_weight > 0,
                 "tenant class '" << c.name << "' has non-positive quota "
                 "weight " << c.quota_weight);
    // The default class (index 0) may be anonymous; every other class needs
    // a name to be addressable from a request.
    CB_CHECK_MSG(i == 0 || !c.name.empty(),
                 "tenant class " << i << " has an empty name");
    for (std::size_t j = 0; j < i; ++j) {
      CB_CHECK_MSG(classes_[j].name != c.name || c.name.empty(),
                   "duplicate tenant class name '" << c.name << "'");
    }
  }
}

std::size_t TenantTable::resolve(const std::string& tenant) const {
  if (!tenant.empty()) {
    for (std::size_t i = 0; i < classes_.size(); ++i)
      if (classes_[i].name == tenant) return i;
  }
  return 0;  // catch-all default
}

ServeTimePoint TenantTable::effective_deadline(
    std::size_t i, ServeTimePoint now, ServeTimePoint request_deadline) const {
  const double budget = classes_[i].latency_budget_seconds;
  if (budget <= 0) return request_deadline;
  // A budget that reaches past the clock's range is unbounded: casting it
  // to clock ticks would overflow and wrap the deadline into the past.
  const ServeClock::duration room = ServeTimePoint::max() - now;
  if (budget >= std::chrono::duration<double>(room).count())
    return request_deadline;
  const auto class_deadline =
      now + std::min(room, std::chrono::duration_cast<ServeClock::duration>(
                               std::chrono::duration<double>(budget)));
  return request_deadline < class_deadline ? request_deadline : class_deadline;
}

}  // namespace convbound
