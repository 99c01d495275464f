#include "convbound/serve/sharded_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace convbound {

ShardedRequestQueue::ShardedRequestQueue(std::size_t capacity,
                                         std::size_t shards)
    : capacity_(capacity) {
  const std::size_t n = std::max<std::size_t>(1, shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto q = std::make_unique<RequestQueue>();
    q->set_notifier([this] { notify(); });
    q->set_on_expired([this](std::size_t cls, std::size_t cnt) {
      note_removed(cls, cnt);
      if (on_expired_) on_expired_(cls, cnt);
    });
    shards_.push_back(std::move(q));
    shard_hwm_.push_back(std::make_unique<std::atomic<std::size_t>>(0));
  }
  class_depth_.push_back(std::make_unique<std::atomic<std::size_t>>(0));
}

void ShardedRequestQueue::set_tenancy(const TenantTable* table,
                                      double congestion) {
  table_ = table;
  congestion_ = std::clamp(congestion, 0.0, 1.0);
  weight_sum_ = 0;
  num_classes_ = 1;
  if (table_) {
    for (const TenantClass& c : table_->classes()) weight_sum_ += c.quota_weight;
    num_classes_ = std::max<std::size_t>(1, table_->size());
    while (class_depth_.size() < num_classes_)
      class_depth_.push_back(std::make_unique<std::atomic<std::size_t>>(0));
  }
  if (weight_sum_ <= 0) weight_sum_ = 1.0;
}

std::size_t ShardedRequestQueue::class_share(std::size_t i) const {
  if (!table_ || i >= table_->size()) return capacity_;
  const double frac = table_->cls(i).quota_weight / weight_sum_;
  const auto share = static_cast<std::size_t>(
      std::floor(frac * static_cast<double>(capacity_)));
  return std::max<std::size_t>(1, share);
}

void ShardedRequestQueue::notify() {
  version_.fetch_add(1, std::memory_order_seq_cst);
  if (waiters_.load(std::memory_order_seq_cst) > 0) {
    // The lock pairs with wait_version's locked predicate check: without
    // it a waiter could pass the predicate and sleep after this
    // notify_all already fired.
    MutexLock lock(wait_mu_);
    cv_.notify_all();
  }
}

void ShardedRequestQueue::wait_version(std::uint64_t seen,
                                       const ServeTimePoint* deadline) {
  UniqueLock lock(wait_mu_);
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  while (version_.load(std::memory_order_seq_cst) == seen) {
    if (deadline) {
      if (cv_.wait_until(lock, *deadline) == std::cv_status::timeout) break;
    } else {
      cv_.wait(lock);
    }
  }
  waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

void ShardedRequestQueue::raise_shard_hwm(std::size_t s, std::size_t depth) {
  std::atomic<std::size_t>& hwm = *shard_hwm_[s];
  std::size_t cur = hwm.load(std::memory_order_relaxed);
  while (cur < depth &&
         !hwm.compare_exchange_weak(cur, depth, std::memory_order_relaxed)) {
  }
}

void ShardedRequestQueue::note_removed(std::size_t cls, std::size_t n) {
  if (n == 0) return;
  cls_counter(cls).fetch_sub(n, std::memory_order_relaxed);
  depth_.fetch_sub(n, std::memory_order_relaxed);
  notify();
}

ShardedRequestQueue::Admit ShardedRequestQueue::push(PendingRequest&& p,
                                                     std::size_t* depth_after) {
  if (closed_.load(std::memory_order_relaxed)) return Admit::kClosed;
  const std::size_t cls = p.class_index;
  const auto threshold = static_cast<std::size_t>(
      congestion_ * static_cast<double>(capacity_));
  std::size_t reserved_depth = 0;
  // Reservation-style admission on relaxed atomics: claim a slot (CAS, so
  // depth_ never overshoots capacity even transiently — depth() is a
  // documented invariant), check quota, undo on rejection. The first
  // rejection of either kind sweeps expired entries out of all shards and
  // retries (matching the single-queue rule that dead occupants never cost
  // live traffic a rejection).
  bool swept = false;
  for (;;) {
    std::size_t cur = depth_.load(std::memory_order_relaxed);
    if (cur >= capacity_) {
      if (!swept) {
        swept = true;
        sweep_expired();
        continue;
      }
      return Admit::kFull;
    }
    if (!depth_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_relaxed))
      continue;
    const std::size_t cd =
        cls_counter(cls).fetch_add(1, std::memory_order_relaxed);
    if (table_ && cur >= threshold && cd >= class_share(cls)) {
      cls_counter(cls).fetch_sub(1, std::memory_order_relaxed);
      depth_.fetch_sub(1, std::memory_order_relaxed);
      if (!swept) {
        swept = true;
        sweep_expired();
        continue;
      }
      return Admit::kQuota;
    }
    reserved_depth = cur + 1;
    break;
  }
  if (!insert_reserved(std::move(p))) return Admit::kClosed;
  if (depth_after) *depth_after = reserved_depth;
  return Admit::kOk;
}

bool ShardedRequestQueue::readmit(PendingRequest&& p) {
  depth_.fetch_add(1, std::memory_order_relaxed);
  cls_counter(p.class_index).fetch_add(1, std::memory_order_relaxed);
  return insert_reserved(std::move(p));
}

bool ShardedRequestQueue::insert_reserved(PendingRequest&& p) {
  const std::size_t cls = p.class_index;
  const std::size_t s = shard_of(p.request.model, cls);
  p.shard = static_cast<std::uint32_t>(s);
  // The shard's closed bit is the submit-vs-stop authority.
  std::size_t shard_depth_after = 0;
  if (!shards_[s]->insert(std::move(p), &shard_depth_after)) {
    note_removed(cls, 1);  // undo the reservation
    return false;
  }
  raise_shard_hwm(s, shard_depth_after);
  return true;
}

bool ShardedRequestQueue::wait_front(std::string* model,
                                     ServeTimePoint* enqueued) {
  for (;;) {
    const std::uint64_t seen = version_.load(std::memory_order_seq_cst);
    // Scan the shard heads; each peek sweeps that shard's expired prefix.
    // The chosen head is the true global minimum at scan time — the
    // approximation is only that it can be overtaken by a more urgent
    // push to another shard after we return.
    bool found = false;
    ServeTimePoint best_dl{};
    ServeTimePoint best_enq{};
    std::string m;
    for (auto& shard : shards_) {
      std::string sm;
      ServeTimePoint enq, dl;
      if (!shard->peek_front(&sm, &enq, &dl)) continue;
      if (!found || dl < best_dl || (dl == best_dl && enq < best_enq)) {
        found = true;
        best_dl = dl;
        best_enq = enq;
        m = std::move(sm);
      }
    }
    if (found) {
      *model = std::move(m);
      *enqueued = best_enq;
      return true;
    }
    if (closed_.load(std::memory_order_seq_cst) &&
        depth_.load(std::memory_order_seq_cst) == 0)
      return false;
    // Either open-and-empty, or closed with reservations still in flight
    // (a racing push will insert — making the next scan find it — or
    // undo, which drops depth_ to zero; both bump the version).
    wait_version(seen, nullptr);
  }
}

std::vector<std::size_t> ShardedRequestQueue::candidate_shards(
    const std::string& model) const {
  // (hash + class) mod N over all configured classes: the only shards any
  // request for `model` can occupy.
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < num_classes_; ++c) {
    const std::size_t s = shard_of(model, c);
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

std::size_t ShardedRequestQueue::count_model_live(
    const std::string& model, const std::vector<std::size_t>& candidates) {
  std::size_t n = 0;
  for (std::size_t s : candidates) n += shards_[s]->count_model_live(model);
  return n;
}

std::vector<PendingRequest> ShardedRequestQueue::collect(
    const std::string& model, std::size_t max_n, ServeTimePoint deadline) {
  const std::vector<std::size_t> candidates = candidate_shards(model);
  // Phase 1: wait for a full group, the batch deadline, or close — the
  // same trigger set as the single queue, but counting live entries
  // across every shard the model can land on.
  for (;;) {
    const std::uint64_t seen = version_.load(std::memory_order_seq_cst);
    if (closed_.load(std::memory_order_seq_cst)) break;
    if (count_model_live(model, candidates) >= max_n) break;
    if (ServeClock::now() >= deadline) break;
    wait_version(seen, &deadline);
  }

  // Phase 2: gather, most-urgent shard head first so the cross-shard
  // concatenation tracks global EDF at shard granularity (each shard's
  // chunk is itself exact-EDF).
  std::vector<std::pair<ServeTimePoint, std::size_t>> order;
  for (std::size_t s : candidates) {
    ServeTimePoint dl;
    if (shards_[s]->peek_model(model, &dl)) order.emplace_back(dl, s);
  }
  std::sort(order.begin(), order.end());

  std::vector<PendingRequest> out;
  for (const auto& [dl, s] : order) {
    if (out.size() >= max_n) break;
    std::vector<PendingRequest> chunk =
        shards_[s]->take(model, max_n - out.size());
    for (PendingRequest& p : chunk) {
      note_removed(p.class_index, 1);
      out.push_back(std::move(p));
    }
  }
  return out;
}

void ShardedRequestQueue::sweep_expired() {
  for (auto& shard : shards_) shard->sweep_expired();
}

void ShardedRequestQueue::close() {
  closed_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) shard->close();
  notify();
}

std::vector<PendingRequest> ShardedRequestQueue::drain() {
  std::vector<PendingRequest> out;
  for (auto& shard : shards_) {
    std::vector<PendingRequest> chunk = shard->drain();
    for (PendingRequest& p : chunk) {
      note_removed(p.class_index, 1);
      out.push_back(std::move(p));
    }
  }
  return out;
}

std::size_t ShardedRequestQueue::class_depth(std::size_t i) const {
  if (i >= class_depth_.size()) return 0;
  return class_depth_[i]->load(std::memory_order_relaxed);
}

}  // namespace convbound
