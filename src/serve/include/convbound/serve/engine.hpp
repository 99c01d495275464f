// The execution half of a serving node: the cluster layer runs one engine
// per device (src/cluster), and the one-device InferenceServer is a cluster
// of one.
//
// A ServeEngine owns everything one *device* needs to execute micro-batch
// groups: the bound-guided bucket choice per model (choose_batch_bucket
// against this device's MachineSpec, scored with the same per-model Planner
// and options the sessions run), the power-of-two session-ladder, one
// thread-safe Planner per model, a TuneCache, and the SessionPool of warm
// replicas. warm() is the only place planning, tuning, and workspace
// allocation happen; after it, execute_batch() plans nothing and allocates
// nothing (the per-device zero-plan-miss / zero-alloc invariant, asserted
// by tests/serve_test.cpp and tests/cluster_test.cpp).
//
// The engine records execution-side events (batches, expirations, failures)
// into an injected ServerStats sink; queue-side events (submissions,
// rejections) belong to whoever owns the queue in front of the engine.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convbound/machine/machine_spec.hpp"
#include "convbound/plan/planner.hpp"
#include "convbound/serve/batch_policy.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/serve/queue.hpp"
#include "convbound/serve/session_pool.hpp"
#include "convbound/serve/stats.hpp"
#include "convbound/serve/tenancy.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

/// One simulated accelerator of a serving fleet: what differs per device.
struct DeviceConfig {
  MachineSpec spec;
  /// Display name; empty = "d<i>:<spec name>" assigned by the cluster.
  std::string name;
  /// Executor worker threads on this device.
  int workers = 1;
  /// Sessions per (model, bucket): how many batches of one model may be in
  /// flight concurrently on this device; 0 = one per worker.
  int replicas = 0;
  /// Per-device queue depth: groups in flight + queued before the Router
  /// steals to another device; 0 = 2 * workers.
  int max_pending_groups = 0;

  int effective_replicas() const { return replicas > 0 ? replicas : workers; }
  int effective_pending() const {
    return max_pending_groups > 0 ? max_pending_groups : 2 * workers;
  }
};

/// The options of a serving front door, shared by the fleet's
/// ClusterOptions and the one-device ServerOptions. What differs per device
/// (machine, workers, replicas) lives in the device description.
struct ServingOptions {
  /// Front-door queue capacity; submits beyond it are rejected
  /// (backpressure).
  std::size_t max_queue = 1024;
  /// Ingest shards in the front door (sub-queues + stats stripes). Submit
  /// is lock-striped across them; capacity/quota stay global. 1 recovers
  /// single-queue exact-EDF ordering.
  std::size_t shards = 4;
  /// How long the scheduler holds a partial group past its oldest arrival.
  std::chrono::microseconds max_delay{2000};
  /// 0 = bound-guided bucket per (model, device) (choose_batch_bucket);
  /// otherwise a fixed bucket for every model (1 = the unbatched baseline).
  std::int64_t force_bucket = 0;
  BatchPolicyOptions batch_policy;
  /// Planning mode for the bucket scores and the warm sessions (kTuned
  /// autotunes through each device's thread-safe TuneCache).
  PlanMode plan_mode = PlanMode::kMeasured;
  int tune_budget = 16;
  std::uint64_t seed = 42;
  /// Tenant / priority classes (first = catch-all default). Empty keeps the
  /// single-class behaviour: FIFO-equivalent EDF, no quotas.
  std::vector<TenantClass> classes;
  /// Queue-fill fraction at which weighted-fair per-class shares start
  /// binding; below it admission is work-conserving.
  double admission_congestion = 0.5;
};

class ServeEngine {
 public:
  /// Reads the execution-side fields of `opts` (bucket forcing, batch
  /// policy, planning mode, tune budget, seed) and the device's spec and
  /// replicas; `ordinal` is the fleet index stamped on this engine's trace
  /// events. `models` and `stats` are unowned and must outlive the engine.
  ServeEngine(const std::map<std::string, ServedModel>& models,
              const ServingOptions& opts, const DeviceConfig& device,
              int ordinal, ServerStats* stats);

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Chooses buckets and builds + warms every session (bucket ladder x
  /// replicas per model). The only place planning and tuning happen; safe
  /// to call concurrently with stats polling, call once.
  void warm();

  /// Runs one same-model group: drops expired requests, executes the rest
  /// at the smallest covering warm bucket, and completes every promise
  /// (kOk / kDeadlineExceeded / kError). Never throws.
  void execute_batch(std::vector<PendingRequest> group,
                     const std::string& model_name);

  /// The scored bucket candidates behind `name`'s chosen bucket.
  const BucketChoice& bucket_choice(const std::string& name) const;
  /// The scheduler's max group size for `name` (the chosen bucket).
  std::int64_t bucket_of(const std::string& name) const;
  /// Warm session buckets for `name`: powers of two up to the chosen
  /// bucket. A partial group executes at the smallest covering bucket, so
  /// padding waste is at most 2x instead of chosen-bucket x.
  const std::vector<std::int64_t>& exec_buckets(const std::string& name) const;

  /// Predicted whole-batch time of `name`'s chosen bucket on this device:
  /// its bucket score, the sum of the warm sessions' per-layer counted plan
  /// times. Plans nothing — the cluster Router reads it to build its cost
  /// table.
  double predicted_batch_seconds(const std::string& name) const;

  /// Fills the engine-side snapshot fields: plans_memoised,
  /// plan_misses_after_warm (0 until warm() completes), and the workspace
  /// counters.
  void fill_stats(StatsSnapshot& s) const;

 private:
  /// Total memoised plans across the per-model planners.
  std::size_t plans_memoised() const;

  const std::map<std::string, ServedModel>* models_;
  ServingOptions opts_;
  MachineSpec machine_;
  int replicas_;
  int ordinal_;
  ServerStats* stats_;
  /// Written only by warm() before any thread serves — unguarded by
  /// design (warm() must complete before execute_batch()/bucket_of() may be
  /// called; the lifecycle guard in ClusterDevice::start() enforces that).
  std::map<std::string, BucketChoice> buckets_;
  std::map<std::string, std::vector<std::int64_t>> exec_buckets_;
  TuneCache cache_;
  /// One shared thread-safe Planner per model (its memo keys include the
  /// batch size, so the whole bucket ladder plans each geometry once).
  /// Declared before sessions_: sessions hold pointers into this map.
  /// planners_mu_ guards the map itself (and warm_plans_/warmed_) so a
  /// stats() poll racing warm()'s emplaces is safe; the Planners inside
  /// are individually thread-safe — which is why warm() may legitimately
  /// take a Planner* out of the map under the lock and keep using it after
  /// release (map nodes are pointer-stable; only the map structure needs
  /// the lock).
  mutable Mutex planners_mu_;
  std::map<std::string, Planner> planners_ CB_GUARDED_BY(planners_mu_);
  SessionPool sessions_;
  std::size_t warm_plans_ CB_GUARDED_BY(planners_mu_) = 0;
  bool warmed_ CB_GUARDED_BY(planners_mu_) = false;
};

}  // namespace convbound
