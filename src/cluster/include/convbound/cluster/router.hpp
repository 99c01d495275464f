// Bound-aware placement of request groups onto heterogeneous devices.
//
// The router owns the cluster's placement decision: for each same-model
// group the scheduler is about to form, pick the device that minimises the
// *predicted* per-request completion time
//
//     score(d, m) = (virtual_seconds(d) + batch_seconds(d, m))
//                   / bucket(d, m)
//
// where batch_seconds(d, m) is the predicted whole-batch time of model m's
// chosen bucket on device d, read from the plan layer at warm time (the
// modelled time of counted launches under kMeasured/kTuned planning, pure
// Eq 20/22 dataflow I/O + roofline under kAnalytic; the bucket itself comes
// from choose_batch_bucket against each device's spec) and
// virtual_seconds(d) is d's virtual clock: the predicted busy time of
// everything ever placed on it. Greedily equalising predicted finish times
// is classic list scheduling on the modelled makespan — fast devices take
// proportionally more groups, each model gravitates to the spec the bounds
// layer says suits it, and slow devices still absorb overflow instead of
// idling. Dividing by the device's bucket makes the score a per-request
// figure: a device that amortises 8 requests per batch beats an equally
// fast device that serves them one by one. The clock is virtual *modelled*
// time, deliberately not drained by host-side completions: the host
// executes every simulated device at the same host speed, so draining
// would erase exactly the heterogeneity the placement exists to exploit —
// and placements stay a deterministic function of the request order. No
// device is ever measured at routing time — the cost model *is* the
// paper's bounds layer, which is exactly why plans (and placements) rank
// differently across MachineSpecs (the fig13 effect).
//
// Placement is subject to a per-device pending-group cap: when the
// preferred device is saturated the group is *stolen* by the next-best
// device below its cap (work-stealing fallback, counted in the snapshot);
// when every device is saturated, reserve() blocks until a completion frees
// capacity — that is the moment fleet backlog starts pooling in the front
// queue, where it keeps batching up and counts toward backpressure.
//
// Baseline policies for the bench/tests: kRoundRobin rotates placements
// device by device (skipping saturated devices — that is the rotation
// itself, not a steal, so the steal counter stays 0), kLeastLoaded picks
// the fewest pending groups. Both ignore the cost model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "convbound/serve/scheduler.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

enum class RoutePolicy {
  kBoundAware,   ///< minimise predicted per-request completion (default)
  kRoundRobin,   ///< rotate devices, ignoring the cost model
  kLeastLoaded,  ///< fewest pending groups, ignoring the cost model
};

const char* to_string(RoutePolicy p);
/// bound|rr|least -> policy; throws on an unknown name.
RoutePolicy route_policy_by_name(const std::string& name);

class Router {
 public:
  /// Predicted cost of one chosen-bucket batch of a model on one device
  /// (the per-request figure is batch_seconds / bucket, derived in
  /// score()).
  struct ModelCost {
    std::int64_t bucket = 1;
    double batch_seconds = 0;  ///< predicted whole-batch time
  };

  struct DeviceEntry {
    std::string name;
    /// Groups in flight + queued behind this device's workers; reserve()
    /// never exceeds it (the per-device queue depth).
    int max_pending_groups = 2;
    std::map<std::string, ModelCost> costs;  ///< model -> predicted cost
  };

  Router(RoutePolicy policy, std::vector<DeviceEntry> devices);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Blocks until some *alive* device is below its pending cap, places a
  /// group of `model` on the best such device, and returns that device's
  /// placement (its bucket for the model + its index). Each reserve() must
  /// be paired with exactly one complete(). When the fleet is fully dead
  /// and close() was called, returns device = -1 instead of blocking
  /// forever — the caller owns the unplaced group (shutdown path).
  Placement reserve(const std::string& model);

  /// Frees the capacity reserved for one group of `model` on `device`.
  void complete(int device, const std::string& model);

  /// Chaos lifecycle: a dead device is excluded from preference and
  /// placement (the existing steal path routes around it); set_alive(true)
  /// re-admits it and wakes blocked reserve() calls. Pending accounting is
  /// untouched — in-flight reservations still complete() normally.
  void set_alive(int device, bool alive);
  /// Blocks until `device` holds no reservation (every reserve() on it has
  /// been complete()d).
  void wait_drained(int device) const;

  /// Replaces one device's cost table (hot-join: a cold-revived engine
  /// re-predicts its buckets/batch times at warm time). The virtual clock
  /// keeps its history so accumulated load still counts against the device.
  void update_costs(int device, std::map<std::string, ModelCost> costs);

  /// Marks the router shutting down: reserve() on a fully-dead fleet stops
  /// blocking and returns device = -1. Placement on live devices continues
  /// (stop() drains the queue through them).
  void close();

  struct Snapshot {
    std::vector<std::uint64_t> placements;  ///< groups placed per device
    /// Groups placed on a non-preferred device because the preferred one
    /// was saturated (work-stealing fallback). Always 0 under round-robin:
    /// the rotation has no cost preference to steal from, so passing a
    /// saturated device's turn is not a steal.
    std::uint64_t stolen = 0;
    std::vector<int> pending_groups;
    /// Per-device virtual clocks (predicted modelled busy seconds, total).
    std::vector<double> virtual_seconds;
    std::vector<bool> alive;
  };
  Snapshot snapshot() const;

  /// Device count. devices_ never grows or shrinks after the constructor
  /// (only element fields mutate, under mu_), so reading its size lock-free
  /// is safe; the analysis exemption states that, it does not waive it.
  int size() const CB_NO_THREAD_SAFETY_ANALYSIS {
    return static_cast<int>(devices_.size());
  }

 private:
  struct DeviceState {
    DeviceEntry entry;
    int pending_groups = 0;
    double virtual_seconds = 0;
    std::uint64_t placements = 0;
    bool alive = true;
  };

  /// The const helpers below walk guarded placement state (devices_,
  /// rr_next_), so callers must hold mu_ — CB_REQUIRES makes the analyzer
  /// enforce what the old *_locked naming only suggested.
  const ModelCost& cost(const DeviceState& d, const std::string& model) const
      CB_REQUIRES(mu_);
  double score(const DeviceState& d, const std::string& model) const
      CB_REQUIRES(mu_);
  /// Whether device `i` may take a placement: alive, and (when
  /// `only_available`) below its pending cap. A named method rather than a
  /// lambda inside pick() because the analyzer treats lambdas as separate
  /// functions that do not inherit the caller's held locks.
  bool placeable(int i, bool only_available) const CB_REQUIRES(mu_);
  /// Best *alive* device for `model` under `policy_`; when
  /// `only_available`, also skip devices at their pending cap (-1 if none
  /// qualifies).
  int pick(const std::string& model, bool only_available) const
      CB_REQUIRES(mu_);
  bool any_alive_locked() const CB_REQUIRES(mu_);

  RoutePolicy policy_;
  mutable Mutex mu_;
  mutable CondVar cv_;
  std::vector<DeviceState> devices_ CB_GUARDED_BY(mu_);
  std::uint64_t stolen_ CB_GUARDED_BY(mu_) = 0;
  int rr_next_ CB_GUARDED_BY(mu_) = 0;
  bool closed_ CB_GUARDED_BY(mu_) = false;
};

}  // namespace convbound
