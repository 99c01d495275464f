#include "convbound/serve/obs_export.hpp"

#include <cstddef>

namespace convbound {

namespace {

/// Joins the caller's label body with extra labels, keeping the
/// brace-less Prometheus body form (`a="x",b="y"`).
std::string join_labels(const std::string& base, const std::string& extra) {
  if (base.empty()) return extra;
  if (extra.empty()) return base;
  return base + "," + extra;
}

/// One RequestCounts as series named `prefix` + the family name: the
/// server total renders under "convbound_", each class slice under
/// "convbound_class_", so the two cannot drift apart.
void publish_counts(ObsRegistry& reg, const std::string& prefix,
                    const std::string& labels, const RequestCounts& c) {
  const std::string help_req =
      "Requests by terminal disposition (completed / shed / expired / "
      "failed); submitted counts every arrival.";
  reg.set_counter(prefix + "requests_submitted_total", labels,
                  static_cast<double>(c.submitted), help_req);
  reg.set_counter(prefix + "requests_completed_total", labels,
                  static_cast<double>(c.completed), help_req);
  // Queue-full backpressure, weighted-fair quota, and shutdown each get
  // their own reason label.
  const std::string help_shed = "Requests shed at admission, by reason.";
  reg.set_counter(prefix + "requests_shed_total",
                  join_labels(labels, "reason=\"full\""),
                  static_cast<double>(c.rejected), help_shed);
  reg.set_counter(prefix + "requests_shed_total",
                  join_labels(labels, "reason=\"quota\""),
                  static_cast<double>(c.quota_rejected), help_shed);
  reg.set_counter(prefix + "requests_shed_total",
                  join_labels(labels, "reason=\"shutdown\""),
                  static_cast<double>(c.shutdown_rejected), help_shed);
  reg.set_counter(prefix + "requests_expired_total", labels,
                  static_cast<double>(c.expired),
                  "Requests whose deadline passed before execution.");
  reg.set_counter(prefix + "requests_failed_total", labels,
                  static_cast<double>(c.failed),
                  "Requests completed with an execution error.");

  reg.set_histogram(prefix + "request_latency_seconds", labels, c.latency,
                    "End-to-end submit-to-completion latency.");
  const std::string help_stage =
      "Stage decomposition of completed-request latency; the three stages "
      "sum to the end-to-end latency per request.";
  reg.set_histogram(prefix + "stage_queue_wait_seconds", labels,
                    c.queue_wait, help_stage);
  reg.set_histogram(prefix + "stage_batch_delay_seconds", labels,
                    c.batch_delay, help_stage);
  reg.set_histogram(prefix + "stage_exec_seconds", labels, c.exec,
                    help_stage);
}

}  // namespace

void publish_snapshot(ObsRegistry& reg, const std::string& labels,
                      const StatsSnapshot& s) {
  // ----- request accounting: the total, then each class slice -------------
  publish_counts(reg, "convbound_", labels, s);
  for (const auto& [name, c] : s.classes)
    publish_counts(reg, "convbound_class_",
                   join_labels(labels, "class=\"" + name + "\""), c);
  reg.set_counter("convbound_batches_total", labels,
                  static_cast<double>(s.batches),
                  "Executed micro-batches.");

  // ----- throughput / queue gauges -----------------------------------------
  reg.set_gauge("convbound_throughput_rps", labels, s.throughput_rps,
                "Completed requests per wall second since start.");
  reg.set_gauge("convbound_modelled_rps", labels, s.modelled_rps,
                "Completed requests per modelled accelerator second.");
  reg.set_gauge("convbound_mean_batch_size", labels, s.mean_batch_size,
                "Mean live micro-batch size.");
  reg.set_gauge("convbound_queue_depth", labels,
                static_cast<double>(s.queue_depth),
                "Front-door queue depth at snapshot time.");
  reg.set_gauge("convbound_queue_depth_max", labels,
                static_cast<double>(s.max_queue_depth),
                "Front-door queue depth high-water mark.");
  const std::string help_shard =
      "Per-ingest-shard queue depth (current / high-water).";
  for (std::size_t i = 0; i < s.shard_depths.size(); ++i)
    reg.set_gauge("convbound_shard_depth",
                  join_labels(labels, "shard=\"" + std::to_string(i) + "\""),
                  static_cast<double>(s.shard_depths[i]), help_shard);
  for (std::size_t i = 0; i < s.shard_max_depths.size(); ++i)
    reg.set_gauge(
        "convbound_shard_depth_max",
        join_labels(labels, "shard=\"" + std::to_string(i) + "\""),
        static_cast<double>(s.shard_max_depths[i]), help_shard);
  if (!s.shard_max_depths.empty())
    reg.set_gauge("convbound_shard_imbalance", labels, s.shard_imbalance,
                  "max/mean of per-shard high-water depths (1.0 = even).");
}

}  // namespace convbound
