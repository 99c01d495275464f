// In-process dynamic micro-batching inference server on one device.
//
// An InferenceServer is a one-device ClusterServer (cluster.hpp): the same
// sharded front door, scheduler, warm engine and stats, with the Router's
// per-device pending cap set to `workers` so at most `workers` groups are
// in flight and saturation backlog pools in the front queue. The header
// keeps its serve/ include path, but the class lives in the cluster module
// because it is built on ClusterServer.
//
// Planning, tuning, and workspace growth all happen in start(); the
// steady-state serving path performs zero planning and zero workspace
// allocation (asserted by tests/serve_test.cpp via the stats counters).
#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "convbound/cluster/cluster.hpp"

namespace convbound {

struct ServerOptions : ServingOptions {
  ServerOptions() { max_queue = 256; }

  MachineSpec machine = MachineSpec::v100();
  /// Batch-executor worker threads, and the cap on groups in flight.
  int workers = 2;
  /// Sessions per (model, bucket): how many batches of one model may be in
  /// flight concurrently.
  int replicas = 1;

  /// The same options as a one-device fleet.
  ClusterOptions cluster_options() const;
};

class InferenceServer {
 public:
  InferenceServer(std::vector<ServedModel> models, const ServerOptions& opts);

  /// Warms the device (the only place planning and tuning happen) and
  /// starts serving. Throws convbound::Error on a second start() or a
  /// start() after stop().
  void start() { cluster_.start(); }

  /// Closes the queue, drains it, and joins everything. Queued-but-unserved
  /// requests complete with kShutdown. Idempotent.
  void stop() { cluster_.stop(); }

  /// Thread-safe; never blocks. See ClusterServer::submit for the statuses.
  /// Requests may be queued before start().
  std::future<InferResponse> submit(InferRequest request) {
    return cluster_.submit(std::move(request));
  }

  StatsSnapshot stats() const { return cluster_.stats().fleet; }

  /// The scored bucket candidates behind `name`'s chosen bucket.
  const BucketChoice& bucket_choice(const std::string& name) const {
    return cluster_.device(0).engine().bucket_choice(name);
  }
  /// The scheduler's max group size for `name` (the chosen bucket).
  std::int64_t bucket_of(const std::string& name) const {
    return cluster_.device(0).engine().bucket_of(name);
  }

 private:
  ClusterServer cluster_;
};

}  // namespace convbound
