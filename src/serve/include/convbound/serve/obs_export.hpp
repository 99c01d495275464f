// Publishes a StatsSnapshot into an ObsRegistry's metrics registry, so the
// serving counters, gauges, and stage-latency histograms come out of
// `ObsRegistry::dump_metrics_text()` in Prometheus text exposition format.
//
// The snapshot is the source of truth (it already folds stats stripes and,
// for the cluster, the front door with the devices); this function is a pure
// renderer — it re-sets every sample, so repeated publishes of successive
// snapshots behave like a scrape of monotonically updated metrics.
#pragma once

#include <string>

#include "convbound/obs/trace.hpp"
#include "convbound/serve/stats.hpp"

namespace convbound {

/// Writes `s` into `reg`'s metrics registry under the metric names
/// convbound_requests_submitted_total, convbound_queue_depth, ...;
/// `labels` is a pre-rendered Prometheus label body without braces (e.g.
/// `job="serve"`, may be empty) that every sample carries. Each class slice
/// renders the same request series as the total, renamed convbound_class_*
/// and with a `class="<name>"` label; per-shard gauges add `shard="<i>"`.
void publish_snapshot(ObsRegistry& reg, const std::string& labels,
                      const StatsSnapshot& s);

}  // namespace convbound
