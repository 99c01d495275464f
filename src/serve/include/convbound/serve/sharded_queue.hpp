// Sharded serving front door: N RequestQueue shards behind a facade that
// preserves the single-queue contract.
//
// Why: every producer thread, the scheduler, and every stats read used to
// serialize on ONE queue mutex (and the depth() read on the submit path
// took it twice). At high producer counts the lock — not the accelerators —
// is the bottleneck. Sharding splits the mutex N ways and moves the global
// accounting (depth, per-class totals) onto relaxed atomics, so submit is
// lock-striped: two uncontended atomic ops plus one shard mutex instead of
// the global mutex, and depth()/class_depth() are lock-free reads.
//
// Shard selection: shard_of(model, class) = (hash(model) + class_index)
// mod N. Hashing the model keeps each model's traffic on one shard per
// class (collect touches at most `num_classes` shards, and within a shard
// EDF order is exact); adding the class index as tiebreak spreads a hot
// model's tenant classes across shards instead of piling them onto one.
//
// Admission is decided at the facade on relaxed atomics *before* touching
// any shard, reservation-style: depth is fetch_add'd, checked against
// global capacity, and undone on rejection (likewise the per-class counter
// against its weighted-fair share when fill >= congestion x capacity).
// The counters therefore never exceed their caps, and the facade is the
// only capacity/quota authority: a shard has no capacity of its own. A
// rejection sweeps all shards for expired entries once and retries, so
// dead occupants never cost live traffic a rejection. The shard insert
// (RequestQueue::insert) respects close — the shard's closed bit decides
// submit-vs-stop races.
//
// Ordering is approximate-global-EDF: exact EDF within each shard;
// wait_front scans the N shard heads and reports the globally most urgent
// one. A request can be collected before a *more* urgent request of a
// different model+class pair that hashed to another shard whose head was
// less urgent at scan time — the inversion is bounded at shard
// granularity (never within a shard, and wait_front itself always names
// the true global minimum at scan time; see docs/serving.md and the
// ApproximateGlobalEdf test).
//
// Expiry stays shard-owned; the facade interposes on each shard's
// on_expired to keep the global atomics in step before forwarding to the
// owner's callback. Shards never block: all waiting (wait_front, collect's
// group wait) happens here, on a facade-level eventcount — every shard
// notification bumps a version counter, so a waiter never sleeps through
// a push to a shard it wasn't watching.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "convbound/serve/queue.hpp"
#include "convbound/serve/tenancy.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

class ShardedRequestQueue {
 public:
  /// Push verdict. The caller completes the promise itself on non-kOk:
  /// kFull -> kRejected, kQuota -> kQuotaExceeded, kClosed -> kShutdown.
  /// Returning kClosed (instead of making the caller re-read its own
  /// stopped flag) is what makes submit-vs-stop race-free: the shard's
  /// closed bit decides which side won.
  enum class Admit { kOk, kFull, kQuota, kClosed };

  /// `capacity` is the *global* bound; `shards` >= 1 (clamped). One shard
  /// is the single-queue, exact-EDF configuration.
  ShardedRequestQueue(std::size_t capacity, std::size_t shards);
  ShardedRequestQueue(const ShardedRequestQueue&) = delete;
  ShardedRequestQueue& operator=(const ShardedRequestQueue&) = delete;

  /// Installs the tenant table quota admission consults. `table` must
  /// outlive the queue; call before any thread touches it. Without one,
  /// every entry is class 0 and quota never binds (single-tenant
  /// behaviour). `congestion` in [0,1] is the fill fraction at which
  /// per-class weighted-fair shares (weight_c / sum(weights) x capacity,
  /// min 1) start binding; below it admission is work-conserving.
  void set_tenancy(const TenantTable* table, double congestion);

  /// Called with (class index, count) for queue-expired requests (their
  /// promises already completed with kDeadlineExceeded), after the global
  /// counters reflect the removal. Set once, before any thread touches the
  /// queue.
  void set_on_expired(std::function<void(std::size_t, std::size_t)> fn) {
    on_expired_ = std::move(fn);
  }

  /// The shard `(model, class_index)` traffic lands on. Exposed so the
  /// submit path can route its stats recording to the matching stripe.
  std::size_t shard_of(const std::string& model,
                       std::size_t class_index) const {
    return (std::hash<std::string>{}(model) + class_index) % shards_.size();
  }

  /// Admission (strict global capacity + weighted-fair quota), then
  /// sharded insert. A full queue (or an over-quota class) is swept for
  /// expired entries before the rejection stands. On kOk, `depth_after`
  /// receives the global depth right after this insert's reservation.
  Admit push(PendingRequest&& p, std::size_t* depth_after = nullptr);

  /// Re-inserts a request that already passed admission once (device-loss
  /// requeue). Bypasses capacity and quota — the request must not be
  /// silently lost to backpressure it already cleared — but respects
  /// close: false means the caller owns the promise (shutdown path).
  bool readmit(PendingRequest&& p);

  /// Blocks until some shard holds a live entry or the queue is closed
  /// and empty. Expired entries met on the way are answered and dropped.
  /// Reports the most urgent shard head (approximate-global-EDF; exact at
  /// scan time); false when closed and drained.
  bool wait_front(std::string* model, ServeTimePoint* enqueued);

  /// Waits until `max_n` live requests of `model` are queued across the
  /// shards the model can land on, `deadline` passes, or the queue
  /// closes; then gathers up to `max_n`, visiting candidate shards most-
  /// urgent-head-first (each shard's chunk is exact-EDF). Expired entries
  /// of *any* model are answered and dropped rather than collected.
  std::vector<PendingRequest> collect(const std::string& model,
                                      std::size_t max_n,
                                      ServeTimePoint deadline);

  /// Answers and removes expired entries in every shard.
  void sweep_expired();

  void close();
  std::vector<PendingRequest> drain();

  /// Lock-free global depth (relaxed read of the reservation counter).
  std::size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  std::size_t num_shards() const { return shards_.size(); }
  /// Lock-free cross-shard total for class `i`.
  std::size_t class_depth(std::size_t i) const;
  /// Per-shard depth (shard mutex; tests/introspection only).
  std::size_t shard_depth(std::size_t s) const { return shards_[s]->depth(); }
  /// Per-shard high-water mark (lock-free read): the deepest shard `s` has
  /// ever been right after an insert. Feeds StatsSnapshot::shard_max_depths
  /// and the shard-imbalance ratio.
  std::size_t shard_max_depth(std::size_t s) const {
    return shard_hwm_[s]->load(std::memory_order_relaxed);
  }

 private:
  /// Bumps the facade version and wakes cross-shard waiters. Called by
  /// every shard's notifier and after facade-side removals. Lock-free
  /// when no waiter is registered (the common case on the submit hot
  /// path): one seq_cst increment plus one seq_cst load. CB_EXCLUDES
  /// documents the `shard.mu_ -> wait_mu_` lock order: notify() runs
  /// *after* a shard releases its mutex (RequestQueue::notify_all is
  /// itself CB_EXCLUDES(mu_)), and nothing ever takes a shard mutex
  /// while holding wait_mu_.
  void notify() CB_EXCLUDES(wait_mu_);

  /// Sleeps until the version moves past `seen` (or `deadline`, when
  /// non-null). The seq_cst version/waiters pair makes this a classic
  /// eventcount: a notifier that misses the waiter count is guaranteed to
  /// have published its version bump before the waiter's predicate reads
  /// it, so no wakeup is lost.
  void wait_version(std::uint64_t seen, const ServeTimePoint* deadline)
      CB_EXCLUDES(wait_mu_);

  /// Cross-shard counter for class `i`; out-of-range indices fold into
  /// class 0 (only reachable when callers bypass set_tenancy's contract —
  /// accounting degrades, never UB).
  std::atomic<std::size_t>& cls_counter(std::size_t i) {
    return *class_depth_[i < class_depth_.size() ? i : 0];
  }

  /// Weighted-fair share of global capacity for class `i` (>= 1).
  std::size_t class_share(std::size_t i) const;

  /// Inserts `p`, whose depth/class slots the caller already reserved,
  /// into its shard; on a closed shard undoes the reservation and returns
  /// false (the caller still owns the promise).
  bool insert_reserved(PendingRequest&& p);

  /// Subtracts `n` removed entries of class `cls` from the global
  /// counters and wakes waiters — one blocked on "closed and empty" must
  /// see the drop (collect/drain/expiry paths, and undoing a reservation
  /// the closed shard refused).
  void note_removed(std::size_t cls, std::size_t n);

  /// Live entries of `model` across its candidate shards.
  std::size_t count_model_live(const std::string& model,
                               const std::vector<std::size_t>& candidates);

  /// Distinct shards `(model, class)` can land on for any configured
  /// class — the only shards collect has to visit.
  std::vector<std::size_t> candidate_shards(const std::string& model) const;

  /// Raises shard `s`'s high-water mark to `depth` (relaxed CAS loop).
  void raise_shard_hwm(std::size_t s, std::size_t depth);

  // Each shard locks its own RequestQueue::mu_ internally; the facade
  // never holds two shard mutexes at once, and never holds wait_mu_ while
  // taking a shard mutex (lock order: shard.mu_ -> wait_mu_, enforced by
  // the CB_EXCLUDES annotations on notify()/wait_version() — every
  // wait_mu_ acquisition happens with no shard lock held or after the
  // shard released it inside notify_all).
  std::vector<std::unique_ptr<RequestQueue>> shards_;
  /// Per-shard insert-time depth maxima (see shard_max_depth). Lock-free
  /// by design: monotone relaxed CAS raise; exact because insert hands
  /// out the post-insert depth it computed under the shard lock.
  std::vector<std::unique_ptr<std::atomic<std::size_t>>> shard_hwm_;
  const std::size_t capacity_;

  // Reservation counters: never exceed capacity_ / the class share.
  // Deliberately NOT guarded by any mutex: admission is a relaxed CAS
  // slot claim (depth_ can only move capacity-ward via a successful CAS,
  // so it never overshoots even transiently) and the per-class counters
  // are fetch_add reservations undone on rejection. The informal proof
  // lives in docs/concurrency.md ("Facade reservation atomics").
  std::atomic<std::size_t> depth_{0};
  std::vector<std::unique_ptr<std::atomic<std::size_t>>> class_depth_;

  // Cross-shard wakeup: shards notify -> version bump; waiters sleep on
  // cv_ until the version moves. The facade mutex is only taken by
  // waiters and by notifiers that observe waiters_ > 0, so it is not on
  // the contended submit path. version_/waiters_ form the eventcount's
  // Dekker pairing (seq_cst on both sides) and are intentionally
  // unguarded: notify() reads waiters_ *outside* wait_mu_ — the proof
  // that no wakeup is lost is the seq_cst ordering, not the lock
  // (docs/concurrency.md "Eventcount").
  mutable Mutex wait_mu_;
  CondVar cv_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::size_t> waiters_{0};

  std::atomic<bool> closed_{false};
  std::function<void(std::size_t, std::size_t)> on_expired_;
  const TenantTable* table_ = nullptr;
  double congestion_ = 1.0;
  double weight_sum_ = 1.0;
  std::size_t num_classes_ = 1;
};

}  // namespace convbound
