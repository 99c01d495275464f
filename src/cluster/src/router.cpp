#include "convbound/cluster/router.hpp"

#include <algorithm>
#include <limits>

#include "convbound/util/check.hpp"

namespace convbound {

const char* to_string(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kBoundAware: return "bound-aware";
    case RoutePolicy::kRoundRobin: return "round-robin";
    case RoutePolicy::kLeastLoaded: return "least-loaded";
  }
  return "?";
}

RoutePolicy route_policy_by_name(const std::string& name) {
  if (name == "bound") return RoutePolicy::kBoundAware;
  if (name == "rr") return RoutePolicy::kRoundRobin;
  if (name == "least") return RoutePolicy::kLeastLoaded;
  CB_CHECK_MSG(false, "unknown route policy '" << name
                                               << "' (bound|rr|least)");
  return RoutePolicy::kBoundAware;
}

Router::Router(RoutePolicy policy, std::vector<DeviceEntry> devices)
    : policy_(policy) {
  CB_CHECK_MSG(!devices.empty(), "router needs at least one device");
  devices_.reserve(devices.size());
  for (auto& e : devices) {
    CB_CHECK_MSG(e.max_pending_groups >= 1,
                 "device '" << e.name << "' needs pending capacity >= 1");
    CB_CHECK_MSG(!e.costs.empty(),
                 "device '" << e.name << "' has no model costs");
    DeviceState st;
    st.entry = std::move(e);
    devices_.push_back(std::move(st));
  }
}

const Router::ModelCost& Router::cost(const DeviceState& d,
                                      const std::string& model) const {
  const auto it = d.entry.costs.find(model);
  CB_CHECK_MSG(it != d.entry.costs.end(), "device '" << d.entry.name
                                                     << "' cannot serve '"
                                                     << model << "'");
  return it->second;
}

double Router::score(const DeviceState& d, const std::string& model) const {
  const ModelCost& c = cost(d, model);
  return (d.virtual_seconds + c.batch_seconds) /
         static_cast<double>(c.bucket);
}

bool Router::any_alive_locked() const {
  for (const DeviceState& d : devices_)
    if (d.alive) return true;
  return false;
}

// Dead devices are invisible to both preference and placement: excluding
// them here is what routes a dead device's traffic through the existing
// steal path instead of a separate failover mechanism.
bool Router::placeable(int i, bool only_available) const {
  const DeviceState& d = devices_[static_cast<std::size_t>(i)];
  if (!d.alive) return false;
  return !only_available || d.pending_groups < d.entry.max_pending_groups;
}

int Router::pick(const std::string& model, bool only_available) const {
  const int n = size();
  if (policy_ == RoutePolicy::kRoundRobin) {
    // Rotate; a saturated device passes its turn to the next one.
    for (int off = 0; off < n; ++off) {
      const int i = (rr_next_ + off) % n;
      if (placeable(i, only_available)) return i;
    }
    return -1;
  }

  int best = -1;
  double best_score = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    if (!placeable(i, only_available)) continue;
    const DeviceState& d = devices_[static_cast<std::size_t>(i)];
    const double s = policy_ == RoutePolicy::kLeastLoaded
                         ? static_cast<double>(d.pending_groups)
                         : score(d, model);
    if (s < best_score) {  // strict: ties break toward the lower index
      best_score = s;
      best = i;
    }
  }
  return best;
}

Placement Router::reserve(const std::string& model) {
  UniqueLock lock(mu_);
  // A fully-dead fleet blocks (a revive may restore capacity) unless the
  // router is closing — then the caller gets device = -1 and owns the
  // group, instead of stop() deadlocking behind a reserve() that can
  // never succeed.
  int chosen = pick(model, /*only_available=*/true);
  while (chosen < 0 && !(closed_ && !any_alive_locked())) {
    cv_.wait(lock);
    chosen = pick(model, /*only_available=*/true);
  }
  if (chosen < 0) return Placement{1, -1};
  // The steal counter compares against the unconstrained preference: a
  // group landing somewhere other than its best device means the fallback
  // kicked in. Round-robin has no cost preference — a saturated device
  // passing its turn is the rotation working as designed, so only the
  // cost-driven policies (bound-aware, least-loaded) count steals.
  if (policy_ != RoutePolicy::kRoundRobin) {
    const int preferred = pick(model, /*only_available=*/false);
    if (chosen != preferred) ++stolen_;
  }
  // Advance past the device that actually took the group: after a steal,
  // the rotation must not hand the stealing device its own upcoming turn
  // as well (it would get consecutive groups and starve the next device).
  if (policy_ == RoutePolicy::kRoundRobin) rr_next_ = (chosen + 1) % size();

  DeviceState& d = devices_[static_cast<std::size_t>(chosen)];
  const ModelCost& c = cost(d, model);
  ++d.pending_groups;
  d.virtual_seconds += c.batch_seconds;  // the virtual clock never drains
  ++d.placements;
  // The cost-table prediction rides along so the scheduler's placement
  // trace event can show what the router believed this batch would cost.
  return Placement{c.bucket, chosen, c.batch_seconds};
}

void Router::complete(int device, const std::string& model) {
  {
    MutexLock lock(mu_);
    CB_CHECK_MSG(device >= 0 && device < size(),
                 "complete() for unknown device " << device);
    DeviceState& d = devices_[static_cast<std::size_t>(device)];
    cost(d, model);  // validates the pair
    CB_CHECK_MSG(d.pending_groups > 0,
                 "complete() without a reservation on '" << d.entry.name
                                                         << "'");
    // Only the liveness cap drains; the virtual clock keeps its history so
    // scores stay proportional to each device's accumulated modelled work.
    --d.pending_groups;
  }
  cv_.notify_all();
}

void Router::set_alive(int device, bool alive) {
  {
    MutexLock lock(mu_);
    CB_CHECK_MSG(device >= 0 && device < size(),
                 "set_alive() for unknown device " << device);
    devices_[static_cast<std::size_t>(device)].alive = alive;
  }
  // A revive restores capacity a blocked reserve() may be waiting for; a
  // kill may flip a blocked reserve() into the closed-fleet bailout.
  cv_.notify_all();
}

void Router::wait_drained(int device) const {
  UniqueLock lock(mu_);
  CB_CHECK_MSG(device >= 0 && device < size(),
               "wait_drained() for unknown device " << device);
  while (devices_[static_cast<std::size_t>(device)].pending_groups > 0)
    cv_.wait(lock);
}

void Router::update_costs(int device, std::map<std::string, ModelCost> costs) {
  MutexLock lock(mu_);
  CB_CHECK_MSG(device >= 0 && device < size(),
               "update_costs() for unknown device " << device);
  CB_CHECK_MSG(!costs.empty(), "device '"
                                   << devices_[static_cast<std::size_t>(device)]
                                          .entry.name
                                   << "' cost update has no model costs");
  devices_[static_cast<std::size_t>(device)].entry.costs = std::move(costs);
}

void Router::close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

Router::Snapshot Router::snapshot() const {
  MutexLock lock(mu_);
  Snapshot s;
  s.stolen = stolen_;
  for (const DeviceState& d : devices_) {
    s.placements.push_back(d.placements);
    s.pending_groups.push_back(d.pending_groups);
    s.virtual_seconds.push_back(d.virtual_seconds);
    s.alive.push_back(d.alive);
  }
  return s;
}

}  // namespace convbound
