// Heterogeneous multi-accelerator sharded serving.
//
//   clients ──submit()──► ShardedRequestQueue ──► BatchScheduler ──► Router
//                         (fleet-wide, lock-       (same-model       (bound-aware
//                          striped shards,          groups)           placement,
//                          backpressure)               │              per-device
//                                                      ▼              caps, work
//                                        ClusterDevice[placement]     stealing)
//                                        engine + workers per device
//
// One front door, N simulated accelerators with *different* MachineSpecs.
// Every device owns its full serving stack (bound-guided buckets for its
// own spec, planners, tune cache, warm sessions, worker pool); the Router
// places each request group on the device with the best predicted
// per-request completion, using the paper's analytic cost model (Eq 20/22
// dataflow I/O + roofline per device) instead of measuring — the same
// machinery that makes plans rank differently across machines in the fig13
// arch-sensitivity experiment. When the preferred device's pending queue is
// at its cap, the group is stolen by the next-best device; when all devices
// are saturated, backlog pools in the fleet queue (bounded, rejecting:
// backpressure stays explicit).
//
// Groups are same-model and a model's micro-batch bucket differs per device
// (chosen against each spec), so the scheduler collects *after* placement
// at the placed device's bucket — that is the Placement generalization in
// serve/scheduler.hpp.
//
// This is the only serving stack: the single-device InferenceServer
// (convbound/serve/server.hpp) is a one-device ClusterServer.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convbound/cluster/device.hpp"
#include "convbound/cluster/router.hpp"
#include "convbound/serve/engine.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/serve/scheduler.hpp"
#include "convbound/serve/sharded_queue.hpp"
#include "convbound/serve/stats.hpp"
#include "convbound/serve/tenancy.hpp"

namespace convbound {

struct ClusterOptions : ServingOptions {
  /// The fleet: one entry per simulated accelerator (specs may repeat for a
  /// homogeneous fleet or differ for a heterogeneous one).
  std::vector<DeviceConfig> devices;
  RoutePolicy policy = RoutePolicy::kBoundAware;
};

struct DeviceSnapshot {
  std::string name;
  std::string spec_name;
  /// Groups the Router placed on this device (>= stats.batches while
  /// groups are still queued on the device).
  std::uint64_t placements = 0;
  bool alive = true;
  StatsSnapshot stats;
};

struct ClusterSnapshot {
  /// Fleet-wide merge of the devices and the front door (see
  /// merge_snapshots): modelled_rps is the makespan figure total-completed
  /// / busiest-device-sim-seconds; the wall clock and queue depths are the
  /// front door's.
  StatsSnapshot fleet;
  std::vector<DeviceSnapshot> devices;
  /// Groups placed on a non-preferred device (work-stealing fallback).
  std::uint64_t stolen_groups = 0;
  // Chaos accounting.
  std::uint64_t device_failures = 0;
  std::uint64_t device_revives = 0;
  /// Requests re-queued off a dead device (stranded groups + groups whose
  /// placement raced the failure), none lost.
  std::uint64_t requeued_requests = 0;
};

class ClusterServer {
 public:
  ClusterServer(std::vector<ServedModel> models, ClusterOptions opts);
  /// Stops and drains if still running.
  ~ClusterServer();

  ClusterServer(const ClusterServer&) = delete;
  ClusterServer& operator=(const ClusterServer&) = delete;

  /// Warms every device (the only place planning/tuning happen anywhere in
  /// the fleet), builds the Router from the per-device bucket predictions,
  /// and starts the scheduler. Checks (throws convbound::Error) on a second
  /// start() or a start() after stop().
  void start();

  /// Closes the fleet queue, drains the scheduler and every device, and
  /// completes still-queued requests with kShutdown. Idempotent.
  void stop();

  /// Thread-safe; never blocks. kRejected when the fleet queue is full,
  /// kQuotaExceeded when the request's class is over its weighted-fair
  /// share under overload, and kShutdown after stop() (the queue's closed
  /// state decides shutdown races — a submit that loses to a concurrent
  /// stop() always resolves, never hangs). Requests may be queued before
  /// start().
  std::future<InferResponse> submit(InferRequest request);

  /// Chaos: kills device `i` mid-flight. Its running batch completes with
  /// real statuses; every queued-but-unstarted group is pulled back, its
  /// Router reservation released, and its requests re-queued through the
  /// front queue so the surviving devices absorb them via the Router's
  /// steal path — zero silent loss. Returns once no placement on the device
  /// is in flight, with the number of requests the failure re-queued
  /// (stranded groups plus placements that raced it). Valid after start();
  /// chaos calls must not overlap.
  std::size_t fail_device(std::size_t i);

  /// Brings a failed device back (kWarm: restart with its surviving warm
  /// engine; kCold: rebuild + re-warm from scratch — a hot-join). The
  /// Router's cost table for the device is refreshed from the revived
  /// engine's warm-time bucket predictions before placement resumes; the
  /// rest of the fleet keeps serving throughout. Valid after start().
  void revive_device(std::size_t i, ReviveMode mode);

  ClusterSnapshot stats() const;

  /// Valid after start() (the Router is built from warm-time predictions).
  const Router& router() const;

  std::size_t num_devices() const { return devices_.size(); }
  const ClusterDevice& device(std::size_t i) const { return *devices_[i]; }
  ClusterDevice& device(std::size_t i) { return *devices_[i]; }

 private:
  /// Returns a failed-placement group's requests to the front queue (or
  /// answers them kShutdown when it is closed). Returns how many were
  /// re-queued (all of them, unless shut down).
  std::size_t requeue_group(std::vector<PendingRequest> group);
  /// Answers an admitted, never-served request kShutdown and counts it.
  void answer_shutdown(PendingRequest& p);

  ClusterOptions opts_;
  std::map<std::string, ServedModel> models_;
  TenantTable tenants_;
  /// Front-door counters (submitted / shed / queue watermark), one stripe
  /// per ingest shard plus the exec stripe for queue-side expiry and
  /// shutdown answers;
  /// each device records its own execution-side stats. snapshot() folds
  /// every stripe — reading a single stripe would drop what the other
  /// shards' producers recorded.
  StripedServerStats stats_;
  std::vector<std::unique_ptr<ClusterDevice>> devices_;
  ShardedRequestQueue queue_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<BatchScheduler> scheduler_;
  /// Lifecycle bits are seq_cst: started_ is flipped after router_ is
  /// assigned and read as the gate before touching it, so the store/load
  /// pair must order that publication; stopped_ decides stop() idempotence
  /// across threads. The chaos counters are independent monotonic tallies
  /// (relaxed — nothing is published through them; snapshot readers accept
  /// point-in-time values).
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  // Chaos accounting.
  std::atomic<std::uint64_t> device_failures_{0};
  std::atomic<std::uint64_t> device_revives_{0};
  std::atomic<std::uint64_t> requeued_requests_{0};
};

}  // namespace convbound
