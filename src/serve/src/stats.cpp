#include "convbound/serve/stats.hpp"

#include <algorithm>

namespace convbound {

namespace {

/// The histogram-derived latency fields, shared by the single-device
/// snapshot and the fleet merge so every consumer sees the same numbers.
void fill_latency_fields(StatsSnapshot& s) {
  s.latency_p50 = s.latency.quantile(0.50);
  s.latency_p95 = s.latency.quantile(0.95);
  s.latency_p99 = s.latency.quantile(0.99);
  s.latency_max = s.latency.max_value();
  s.latency_mean = s.latency.mean();
  s.queue_wait_p50 = s.queue_wait.quantile(0.50);
  s.queue_wait_p99 = s.queue_wait.quantile(0.99);
  s.queue_wait_mean = s.queue_wait.mean();
  s.batch_delay_p50 = s.batch_delay.quantile(0.50);
  s.batch_delay_p99 = s.batch_delay.quantile(0.99);
  s.batch_delay_mean = s.batch_delay.mean();
  s.exec_p50 = s.exec.quantile(0.50);
  s.exec_p99 = s.exec.quantile(0.99);
  s.exec_mean = s.exec.mean();
}

/// Batch-size histogram rows and their mean over `batches`.
void fill_batch_fields(StatsSnapshot& s,
                       const std::map<int, std::uint64_t>& histogram) {
  std::uint64_t grouped = 0;
  for (const auto& [size, count] : histogram) {
    s.batch_histogram.emplace_back(size, count);
    grouped += static_cast<std::uint64_t>(size) * count;
  }
  if (s.batches > 0)
    s.mean_batch_size =
        static_cast<double>(grouped) / static_cast<double>(s.batches);
}

void record_completion(RequestCounts& c, double latency,
                       const ServerStats::StageLatencies* stage) {
  ++c.completed;
  c.latency.record(latency);
  if (stage == nullptr) return;
  c.queue_wait.record(stage->queue_wait);
  c.batch_delay.record(stage->batch_delay);
  c.exec.record(stage->exec);
}

}  // namespace

std::uint64_t& RequestCounts::disposition(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return completed;
    case ServeStatus::kRejected: return rejected;
    case ServeStatus::kQuotaExceeded: return quota_rejected;
    case ServeStatus::kShutdown: return shutdown_rejected;
    case ServeStatus::kDeadlineExceeded: return expired;
    case ServeStatus::kError: return failed;
  }
  return failed;  // unreachable: the switch covers every status
}

std::uint64_t RequestCounts::resolved() const {
  return completed + rejected + quota_rejected + shutdown_rejected + expired +
         failed;
}

void RequestCounts::merge(const RequestCounts& other) {
  submitted += other.submitted;
  completed += other.completed;
  rejected += other.rejected;
  quota_rejected += other.quota_rejected;
  shutdown_rejected += other.shutdown_rejected;
  expired += other.expired;
  failed += other.failed;
  latency.merge(other.latency);
  queue_wait.merge(other.queue_wait);
  batch_delay.merge(other.batch_delay);
  exec.merge(other.exec);
}

double shard_imbalance_ratio(const std::vector<std::size_t>& shard_values) {
  if (shard_values.empty()) return 0;
  std::size_t max = 0;
  std::size_t total = 0;
  for (std::size_t v : shard_values) {
    max = std::max(max, v);
    total += v;
  }
  if (total == 0) return 0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shard_values.size());
  return static_cast<double>(max) / mean;
}

StatsSnapshot merge_snapshots(const std::vector<StatsSnapshot>& parts) {
  StatsSnapshot s;
  std::map<int, std::uint64_t> histogram;
  double makespan = 0;
  for (const StatsSnapshot& p : parts) {
    // Bucket-wise histogram addition: the merged histogram is exactly the
    // histogram of the combined request population, so the fleet
    // percentiles below are real percentiles — not the completed-weighted
    // average of per-device percentiles this merge used to report, which
    // understated a heterogeneous fleet's tail whenever the slow device
    // held it. Per-class slices merge the same way.
    s.merge(p);
    for (const auto& [name, part] : p.classes) s.classes[name].merge(part);
    s.batches += p.batches;
    s.sim_seconds += p.sim_seconds;
    s.wall_seconds = std::max(s.wall_seconds, p.wall_seconds);
    // Depth at snapshot time SUMS: the fleet's queued population is the
    // total across device front doors. Only the high-water mark is a max —
    // "deepest any single door ever got" (summing per-part marks taken at
    // different instants would overstate it).
    s.queue_depth += p.queue_depth;
    s.max_queue_depth = std::max(s.max_queue_depth, p.max_queue_depth);
    if (!p.shard_depths.empty()) {
      if (s.shard_depths.size() < p.shard_depths.size())
        s.shard_depths.resize(p.shard_depths.size(), 0);
      for (std::size_t i = 0; i < p.shard_depths.size(); ++i)
        s.shard_depths[i] += p.shard_depths[i];
    }
    if (!p.shard_max_depths.empty()) {
      if (s.shard_max_depths.size() < p.shard_max_depths.size())
        s.shard_max_depths.resize(p.shard_max_depths.size(), 0);
      for (std::size_t i = 0; i < p.shard_max_depths.size(); ++i)
        s.shard_max_depths[i] += p.shard_max_depths[i];
    }
    s.plans_memoised += p.plans_memoised;
    s.plan_misses_after_warm += p.plan_misses_after_warm;
    s.workspace_buffers += p.workspace_buffers;
    s.workspace_bytes += p.workspace_bytes;
    makespan = std::max(makespan, p.sim_seconds);
    for (const auto& [size, count] : p.batch_histogram)
      histogram[size] += count;
  }
  s.shard_imbalance = shard_imbalance_ratio(s.shard_max_depths);
  fill_latency_fields(s);
  if (s.wall_seconds > 0)
    s.throughput_rps = static_cast<double>(s.completed) / s.wall_seconds;
  if (makespan > 0)
    s.modelled_rps = static_cast<double>(s.completed) / makespan;
  fill_batch_fields(s, histogram);
  return s;
}

void ServerStats::mark_start() {
  MutexLock lock(mu_);
  start_ = ServeClock::now();
}

void ServerStats::record_submitted(std::size_t queue_depth_after,
                                   const std::string& cls) {
  MutexLock lock(mu_);
  ++total_.submitted;
  max_queue_depth_ = std::max(max_queue_depth_, queue_depth_after);
  if (!cls.empty()) ++classes_[cls].submitted;
}

void ServerStats::record_shed(ServeStatus status, const std::string& cls) {
  MutexLock lock(mu_);
  ++total_.submitted;
  ++total_.disposition(status);
  if (!cls.empty()) {
    RequestCounts& c = classes_[cls];
    ++c.submitted;
    ++c.disposition(status);
  }
}

void ServerStats::record_unserved(ServeStatus status, std::size_t n,
                                  const std::string& cls) {
  MutexLock lock(mu_);
  total_.disposition(status) += n;
  if (!cls.empty()) classes_[cls].disposition(status) += n;
}

void ServerStats::record_batch(std::size_t group, double sim_seconds,
                               const std::vector<double>& latencies,
                               const std::vector<std::string>& classes,
                               const std::vector<StageLatencies>& stages) {
  MutexLock lock(mu_);
  ++batches_;
  sim_seconds_ += sim_seconds;
  ++histogram_[static_cast<int>(group)];
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    const StageLatencies* stage = i < stages.size() ? &stages[i] : nullptr;
    record_completion(total_, latencies[i], stage);
    if (i < classes.size() && !classes[i].empty())
      record_completion(classes_[classes[i]], latencies[i], stage);
  }
}

StatsSnapshot ServerStats::snapshot() const {
  MutexLock lock(mu_);
  StatsSnapshot s;
  static_cast<RequestCounts&>(s) = total_;
  s.classes = classes_;
  s.batches = batches_;
  s.sim_seconds = sim_seconds_;
  s.max_queue_depth = max_queue_depth_;
  if (start_ != ServeTimePoint{}) {
    s.wall_seconds =
        std::chrono::duration<double>(ServeClock::now() - start_).count();
  }
  if (s.wall_seconds > 0)
    s.throughput_rps = static_cast<double>(s.completed) / s.wall_seconds;
  if (s.sim_seconds > 0)
    s.modelled_rps = static_cast<double>(s.completed) / s.sim_seconds;
  fill_latency_fields(s);
  fill_batch_fields(s, histogram_);
  return s;
}

StripedServerStats::StripedServerStats(std::size_t stripes) {
  const std::size_t n = std::max<std::size_t>(1, stripes);
  stripes_.reserve(n + 1);
  for (std::size_t i = 0; i < n + 1; ++i)
    stripes_.push_back(std::make_unique<ServerStats>());
}

void StripedServerStats::mark_start() {
  for (auto& s : stripes_) s->mark_start();
}

StatsSnapshot StripedServerStats::snapshot() const {
  // Every stripe, submit and exec alike: a snapshot that read only one
  // stripe would miss whatever the other shards' producers recorded.
  std::vector<StatsSnapshot> parts;
  parts.reserve(stripes_.size());
  for (const auto& s : stripes_) parts.push_back(s->snapshot());
  return merge_snapshots(parts);
}

}  // namespace convbound
