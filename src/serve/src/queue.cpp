#include "convbound/serve/queue.hpp"

#include <utility>

#include "convbound/obs/trace.hpp"

namespace convbound {

void RequestQueue::insert_locked(PendingRequest&& p) {
  ++model_counts_[p.request.model];
  UrgencyKey key{p.effective_deadline(), p.enqueued, next_seq_++};
  items_.emplace_hint(items_.end(), key, std::move(p));
}

PendingRequest RequestQueue::remove_locked(
    std::map<UrgencyKey, PendingRequest>::iterator it) {
  PendingRequest p = std::move(it->second);
  auto mit = model_counts_.find(p.request.model);
  if (mit != model_counts_.end() && --mit->second == 0)
    model_counts_.erase(mit);
  items_.erase(it);
  return p;
}

void RequestQueue::expire_locked(ServeTimePoint now) {
  // Expired entries are exactly the prefix of the EDF-ordered map whose
  // key deadline is before now (key.deadline == effective_deadline).
  std::vector<PendingRequest> expired;
  std::vector<std::size_t> per_class;
  while (!items_.empty() && items_.begin()->first.deadline < now) {
    PendingRequest p = remove_locked(items_.begin());
    if (per_class.size() <= p.class_index)
      per_class.resize(p.class_index + 1, 0);
    ++per_class[p.class_index];
    expired.push_back(std::move(p));
  }
  // Completed futures must never be visible before the counter reflects
  // them, so the report comes first (the handler takes its own lock).
  if (on_expired_) {
    for (std::size_t c = 0; c < per_class.size(); ++c)
      if (per_class[c] > 0) on_expired_(c, per_class[c]);
  }
  for (PendingRequest& p : expired) {
    InferResponse r;
    r.status = ServeStatus::kDeadlineExceeded;
    r.latency_seconds =
        std::chrono::duration<double>(now - p.enqueued).count();
    obs::instant(TraceStage::kExpire, now, p.trace_id, p.batch_id, -1,
                 r.latency_seconds);
    p.promise.set_value(std::move(r));
  }
}

bool RequestQueue::insert(PendingRequest&& p, std::size_t* depth_after) {
  {
    MutexLock lock(mu_);
    if (closed_) return false;
    insert_locked(std::move(p));
    if (depth_after) *depth_after = items_.size();
  }
  notify_all();
  return true;
}

bool RequestQueue::peek_front(std::string* model, ServeTimePoint* enqueued,
                              ServeTimePoint* effective_deadline) {
  MutexLock lock(mu_);
  expire_locked(ServeClock::now());
  if (items_.empty()) return false;
  const auto& it = *items_.begin();
  if (model) *model = it.second.request.model;
  if (enqueued) *enqueued = it.second.enqueued;
  if (effective_deadline) *effective_deadline = it.first.deadline;
  return true;
}

bool RequestQueue::peek_model(const std::string& model,
                              ServeTimePoint* effective_deadline) {
  MutexLock lock(mu_);
  expire_locked(ServeClock::now());
  if (model_counts_.find(model) == model_counts_.end()) return false;
  for (const auto& [key, p] : items_) {
    if (p.request.model == model) {
      if (effective_deadline) *effective_deadline = key.deadline;
      return true;
    }
  }
  return false;
}

std::size_t RequestQueue::count_model_live(const std::string& model) {
  MutexLock lock(mu_);
  expire_locked(ServeClock::now());
  auto it = model_counts_.find(model);
  return it == model_counts_.end() ? 0 : it->second;
}

void RequestQueue::sweep_expired() {
  MutexLock lock(mu_);
  expire_locked(ServeClock::now());
}

std::vector<PendingRequest> RequestQueue::take(const std::string& model,
                                               std::size_t max_n) {
  MutexLock lock(mu_);
  expire_locked(ServeClock::now());
  // The map is already EDF-ordered, so a front-to-back walk yields this
  // model's entries most-urgent-first; no sort needed.
  std::vector<PendingRequest> out;
  for (auto it = items_.begin(); it != items_.end() && out.size() < max_n;) {
    if (it->second.request.model == model) {
      auto victim = it++;
      out.push_back(remove_locked(victim));
    } else {
      ++it;
    }
  }
  return out;
}

void RequestQueue::close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  notify_all();
}

std::vector<PendingRequest> RequestQueue::drain() {
  MutexLock lock(mu_);
  std::vector<PendingRequest> out;
  out.reserve(items_.size());
  for (auto& [key, p] : items_) out.push_back(std::move(p));
  items_.clear();
  model_counts_.clear();
  return out;
}

void RequestQueue::notify_all() {
  if (notifier_) notifier_();
}

std::size_t RequestQueue::depth() const {
  MutexLock lock(mu_);
  return items_.size();
}

}  // namespace convbound
