// One shard of the serving front door: an EDF-ordered request store.
//
// ShardedRequestQueue (convbound/serve/sharded_queue.hpp) owns N of these
// and is the only admission authority: it runs global capacity and
// weighted-fair quota on relaxed atomics, inserts what it admitted here,
// and does all cross-shard waiting on its own eventcount. A shard therefore
// never blocks and never rejects for capacity; it orders, expires, and
// hands out entries.
//
// Ordering is earliest-deadline-first on the *effective* deadline — the
// request's explicit deadline ANDed with its tenant class's latency budget
// (ties broken by arrival time, then insertion order, so budget-free
// traffic degrades to FIFO). Entries live in a map ordered by
// (effective_deadline, enqueued, seq): insert is a sorted insert
// (O(log n)), the most urgent entry is begin() (O(1)), expired entries are
// a *prefix* of the map so expiry pops from the front instead of sweeping
// everything, and take() walks in EDF order so groups come out
// most-urgent-first without a sort.
//
// The shard owns deadline expiry for whatever sits in it: every peek,
// count and take first sweeps out each entry whose effective deadline has
// passed, completing its promise with kDeadlineExceeded immediately — a
// dead request is answered promptly and stops occupying capacity the
// facade charges live traffic for. The engine's own collect-time deadline
// check stays as the backstop for requests that expire after leaving the
// queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "convbound/serve/request.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

/// A queued request plus its completion promise, arrival time, and the
/// tenant-class fields the submit path resolved for it. Defaults keep the
/// struct usable without any tenancy configuration.
struct PendingRequest {
  InferRequest request;
  std::promise<InferResponse> promise;
  ServeTimePoint enqueued{};
  std::size_t class_index = 0;
  /// Resolved class name ("" for the anonymous default) — carried so the
  /// executor can attribute latency/expiry to the class without a table.
  std::string tenant_class;
  /// enqueued + class latency budget; max() when the class has no budget.
  ServeTimePoint class_deadline = ServeTimePoint::max();

  /// Trace correlation id (assigned at submit when tracing is enabled; 0
  /// otherwise) and the batch id the scheduler stamps at group formation.
  std::uint64_t trace_id = 0;
  std::uint64_t batch_id = 0;
  /// When the scheduler collected this request into a batch — the
  /// queue_wait / batch_delay stage boundary. Default (epoch) means "never
  /// collected"; the executor falls back to its own start time.
  ServeTimePoint collected{};
  /// Ingest shard this request landed on (stamped by ShardedRequestQueue).
  std::uint32_t shard = 0;

  /// The deadline EDF ordering and expiry act on.
  ServeTimePoint effective_deadline() const {
    return request.deadline < class_deadline ? request.deadline
                                             : class_deadline;
  }
};

class RequestQueue {
 public:
  RequestQueue() = default;
  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Called with (class index, count) for requests the shard just expired
  /// (their promises are already completed with kDeadlineExceeded). Set
  /// once, before any thread touches the shard; the facade uses it to keep
  /// its global counters in step with the resolved futures.
  void set_on_expired(std::function<void(std::size_t, std::size_t)> fn) {
    on_expired_ = std::move(fn);
  }

  /// Wakeup hook for the facade's cross-shard waiters: called (outside the
  /// lock) after insert and close. Set once, before any thread touches the
  /// shard.
  void set_notifier(std::function<void()> fn) { notifier_ = std::move(fn); }

  /// Sorted insert of a request the facade already admitted. Respects
  /// close(): false means the shard is closed and the caller owns the
  /// promise (shutdown path) — the closed bit is what decides
  /// submit-vs-stop races. On success, `depth_after` (when non-null)
  /// receives the post-insert depth, taken under the insert lock (the
  /// facade uses it for per-shard high-water marks).
  bool insert(PendingRequest&& p, std::size_t* depth_after = nullptr);

  /// Sweeps expiry, then reports the most urgent live entry's model,
  /// arrival, and effective deadline. False when empty.
  bool peek_front(std::string* model, ServeTimePoint* enqueued,
                  ServeTimePoint* effective_deadline);

  /// Sweeps expiry, then reports the effective deadline of the most urgent
  /// live entry of `model`. False when the shard holds none.
  bool peek_model(const std::string& model,
                  ServeTimePoint* effective_deadline);

  /// Sweeps expiry, then counts live entries of `model`.
  std::size_t count_model_live(const std::string& model);

  /// Answers and removes every expired entry (see set_on_expired).
  void sweep_expired();

  /// Sweeps expiry, then removes and returns up to `max_n` live entries of
  /// `model`, most urgent first. Never waits.
  std::vector<PendingRequest> take(const std::string& model,
                                   std::size_t max_n);

  /// Refuses later inserts and wakes the facade. Queued entries remain for
  /// take/drain.
  void close();

  /// Removes everything (shutdown path).
  std::vector<PendingRequest> drain();

  std::size_t depth() const;

 private:
  /// EDF position: effective deadline, then arrival, then insertion order
  /// (seq) so entries with identical timestamps stay FIFO and keys are
  /// unique.
  struct UrgencyKey {
    ServeTimePoint deadline;
    ServeTimePoint enqueued;
    std::uint64_t seq;
    bool operator<(const UrgencyKey& o) const {
      if (deadline != o.deadline) return deadline < o.deadline;
      if (enqueued != o.enqueued) return enqueued < o.enqueued;
      return seq < o.seq;
    }
  };

  /// Answers (kDeadlineExceeded) and removes every entry whose effective
  /// deadline is before `now`. Expired entries are a prefix of the
  /// EDF-ordered map, so this pops from the front — O(expired * log n),
  /// not a full sweep. Reports per-class counts through on_expired_.
  void expire_locked(ServeTimePoint now) CB_REQUIRES(mu_);

  /// Sorted insert.
  void insert_locked(PendingRequest&& p) CB_REQUIRES(mu_);

  /// Removes the entry at `it`, maintaining the per-model counts; returns
  /// the moved-out request.
  PendingRequest remove_locked(std::map<UrgencyKey, PendingRequest>::iterator it)
      CB_REQUIRES(mu_);

  /// Runs the facade notifier. Called after the lock is released: the
  /// notifier re-enters facade state, so calling it under mu_ would nest
  /// foreign locks below a shard lock.
  void notify_all() CB_EXCLUDES(mu_);

  mutable Mutex mu_;
  /// EDF order: begin() is the most urgent entry.
  std::map<UrgencyKey, PendingRequest> items_ CB_GUARDED_BY(mu_);
  std::uint64_t next_seq_ CB_GUARDED_BY(mu_) = 0;
  /// Live entries per model, so count_model_live is O(log models) instead
  /// of an O(n) scan.
  std::map<std::string, std::size_t> model_counts_ CB_GUARDED_BY(mu_);
  bool closed_ CB_GUARDED_BY(mu_) = false;
  // on_expired_ / notifier_ are set-once-before-threads configuration
  // (documented on their setters): no guard, by design — after setup they
  // are only ever read.
  std::function<void(std::size_t, std::size_t)> on_expired_;
  std::function<void()> notifier_;
};

}  // namespace convbound
