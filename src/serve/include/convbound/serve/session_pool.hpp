// Pre-planned, warm execution sessions per (model, batch bucket).
//
// A ServeSession owns everything one in-flight micro-batch needs — a
// serial-mode SimGpu (batch-level parallelism lives in the server's worker
// pool), a Planner with memoised
// per-layer plans at the bucket's batch size, and a Workspace arena that
// already holds every activation buffer a batch leases — so steady-state
// serving performs zero planning and zero workspace allocation, and warming
// a session runs no kernel. The SessionPool hands sessions
// out under exclusive leases; workers block when every replica of a key is
// busy, which bounds memory instead of growing cold sessions under load.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convbound/machine/sim_gpu.hpp"
#include "convbound/plan/executor.hpp"
#include "convbound/plan/planner.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

class ServeSession {
 public:
  /// `model` and `planner` must outlive the session. The planner is shared
  /// (it is thread-safe and memoises per shape, so replicas and bucket
  /// ladders plan each geometry exactly once between them); the workspace
  /// is per-session, since leased tensors belong to one batch at a time.
  ServeSession(const ServedModel& model, std::int64_t bucket,
               const MachineSpec& spec, Planner& planner,
               const PlannerOptions& plan_opts);

  /// Plans every layer at the bucket's batch size, then leases every
  /// workspace buffer run() leases (input, layer outputs, adapter buffers)
  /// in run()'s order and with its overlapping lifetimes, executing
  /// nothing. After warm(), serving this session allocates nothing and
  /// never plans. Counted planning (kMeasured, kTuned) throws Error for a
  /// layer with no feasible plan, so start-up still rejects one.
  void warm();

  struct BatchResult {
    LaunchStats stats;          ///< aggregated over all layers
    Workspace::Lease output;    ///< final layer output, [bucket, ...]
  };

  /// Runs the pipeline on a [bucket, cin, hin, win] input.
  BatchResult run(const Tensor4<float>& batch_input);

  const ServedModel& model() const { return *model_; }
  std::int64_t bucket() const { return bucket_; }
  Workspace& workspace() { return workspace_; }

 private:
  const ServedModel* model_;
  std::int64_t bucket_;
  SimGpu gpu_;
  PlannerOptions plan_opts_;
  Planner* planner_;
  Workspace workspace_;
  ConvExecutor executor_;
  std::vector<ConvPlan> plans_;
};

class SessionPool {
 public:
  SessionPool() = default;
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Exclusive session lease; returns the replica to the pool on
  /// destruction.
  class Guard {
   public:
    Guard(Guard&& o) noexcept : pool_(o.pool_), session_(o.session_) {
      o.pool_ = nullptr;
      o.session_ = nullptr;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard();

    ServeSession* operator->() { return session_; }

   private:
    friend class SessionPool;
    Guard(SessionPool* pool, ServeSession* session)
        : pool_(pool), session_(session) {}
    SessionPool* pool_;
    ServeSession* session_;
  };

  /// Registers (and owns) one replica for (session->model(), bucket).
  void add(std::unique_ptr<ServeSession> session);

  /// Blocks until a replica of (model, bucket) is free. Throws Error when
  /// the key was never registered.
  Guard acquire(const std::string& model, std::int64_t bucket);

  // Aggregate observability (safe while sessions are serving: Workspace
  // counters are internally synchronized). Plan counts live on the shared
  // per-model planners, not here.
  std::size_t workspace_buffers() const;
  std::uint64_t workspace_bytes() const;

 private:
  struct Replica {
    std::unique_ptr<ServeSession> session;
    bool busy = false;
  };

  void release(ServeSession* session) CB_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  /// Key: model|bucket. The map (and every Replica's busy bit) is guarded;
  /// the *sessions themselves* are not — a leased session is owned
  /// exclusively by its Guard holder until release(), so the pool lock
  /// never serializes batch execution.
  std::map<std::string, std::vector<Replica>> replicas_ CB_GUARDED_BY(mu_);
};

}  // namespace convbound
