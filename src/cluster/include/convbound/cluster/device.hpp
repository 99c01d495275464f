// One simulated accelerator in a heterogeneous fleet.
//
// A ClusterDevice pairs a ServeEngine (bound-guided buckets, one planner
// for all models, warm SessionPool — all chosen against *this device's*
// MachineSpec) with its own executor workers and its own ServerStats. Devices share the fleet's immutable ServedModel weights but
// nothing mutable: planning on one device never touches another, and the
// per-device zero-plan-miss / zero-alloc steady-state invariant holds
// independently for every spec in the fleet.
//
// The device does not pull work; the cluster's scheduler pushes groups the
// Router placed on it via enqueue(). Admission control lives in the Router
// (per-device pending caps), so the device's internal task queue stays
// shallow by construction.
//
// Chaos lifecycle: fail() kills the device mid-flight — workers stop after
// the batch they are running (its requests complete normally and its
// on_done releases the Router reservation), and every queued-but-unstarted
// group is handed back to the caller so the cluster can re-queue it through
// the Router's surviving devices (zero silent loss). revive() brings the
// device back: kWarm reuses the existing warm engine (sessions and plans
// survived the failure — a restart), kCold rebuilds the whole engine from
// scratch and re-warms it (a replacement device hot-joining the fleet).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "convbound/serve/engine.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/serve/queue.hpp"
#include "convbound/serve/stats.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

/// How a failed device comes back; see ClusterDevice::revive().
enum class ReviveMode {
  kWarm,  ///< restart: the warm engine (plans, sessions) survived
  kCold,  ///< replacement: rebuild + re-warm the engine from scratch
};

class ClusterDevice {
 public:
  /// A Router-placed group a failed device never started. The cluster
  /// re-queues its requests; on_done is the pending Router reservation.
  struct StrandedGroup {
    std::vector<PendingRequest> group;
    std::string model;
    std::function<void()> on_done;
  };

  /// `models` and `opts` are unowned and must outlive the device (the
  /// cluster owns one model map and one options struct for the whole
  /// fleet). `ordinal` is the device's fleet index, stamped on its engine's
  /// trace events.
  ClusterDevice(const std::map<std::string, ServedModel>& models,
                DeviceConfig config, const ServingOptions* opts, int ordinal);
  ~ClusterDevice();

  ClusterDevice(const ClusterDevice&) = delete;
  ClusterDevice& operator=(const ClusterDevice&) = delete;

  /// Warms the engine (all planning/tuning) and starts the workers.
  void start();

  /// Runs every queued group to completion and joins the workers.
  /// Idempotent.
  void drain();

  /// Queues one Router-placed group for execution; true on acceptance.
  /// `on_done` runs after the group completes (success or failure) — the
  /// cluster uses it to return the Router reservation. False when the
  /// device is dead (or not running): the group is moved from ONLY on
  /// acceptance, so on refusal the caller still holds every request
  /// (promises intact) and owns its requeue.
  bool enqueue(std::vector<PendingRequest>&& group, const std::string& model,
               std::function<void()> on_done);

  /// Chaos: kills the device. Workers stop after their current batch (its
  /// requests complete with real statuses and its on_done runs); every
  /// queued-but-unstarted group is returned to the caller, promises and
  /// Router reservations intact. Idempotent (a dead device strands
  /// nothing).
  std::vector<StrandedGroup> fail();

  /// Brings a failed device back and restarts its workers. kCold rebuilds
  /// the engine against the same spec and re-warms it — the only planning
  /// that ever happens after fleet start, and it happens entirely on the
  /// caller's thread so the running fleet never stalls.
  void revive(ReviveMode mode);

  bool alive() const;

  /// Device-side counters (batches, latencies, plan misses, workspace).
  StatsSnapshot stats() const;

  const std::string& name() const { return config_.name; }
  const DeviceConfig& config() const { return config_; }
  /// The pointer read takes engine_mu_ so it cannot tear against a cold
  /// revive's engine swap; the *reference* stays valid only as long as no
  /// cold revive runs, which the cluster's lifecycle guarantees for every
  /// caller (start()-time cost-table reads and test probes).
  ServeEngine& engine() {
    MutexLock lock(engine_mu_);
    return *engine_;
  }
  const ServeEngine& engine() const {
    MutexLock lock(engine_mu_);
    return *engine_;
  }

 private:
  struct Task {
    std::vector<PendingRequest> group;
    std::string model;
    std::function<void()> on_done;
  };

  enum class Mode { kRunning, kDraining, kFailing };

  void spawn_workers();
  void worker_loop();
  /// Joins (and clears) the workers; callable with mu_ released only.
  void join_workers();

  DeviceConfig config_;
  const std::map<std::string, ServedModel>* models_;
  /// What a cold revive rebuilds the engine from.
  const ServingOptions* opts_;
  int ordinal_;
  ServerStats stats_;
  /// Behind a pointer so a cold revive can rebuild it. engine_mu_ guards
  /// the *pointer* (swap vs. concurrent stats() polls and worker reads);
  /// the pointee is the thread-safe ServeEngine, used outside the lock by
  /// design. Every reader loads the pointer under engine_mu_ into a local
  /// first — workers are always joined before a swap, so the pointee a
  /// worker is using is never destroyed under it.
  mutable Mutex engine_mu_;
  std::unique_ptr<ServeEngine> engine_ CB_GUARDED_BY(engine_mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Task> tasks_ CB_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ CB_GUARDED_BY(mu_);
  Mode mode_ CB_GUARDED_BY(mu_) = Mode::kRunning;
  bool started_ CB_GUARDED_BY(mu_) = false;
  bool alive_ CB_GUARDED_BY(mu_) = false;
};

}  // namespace convbound
