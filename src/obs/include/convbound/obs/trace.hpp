// Low-overhead tracing + metrics registry for the serving stack.
//
// Design (see docs/observability.md):
//  - `TraceRecorder` — a fixed-size ring of POD `TraceEvent`s. Each thread
//    records into its own recorder (obtained via `ObsRegistry::recorder()`),
//    so the record path never contends with other producers; the only
//    possible contention is with a concurrent `events()`, which
//    takes the same per-ring mutex (an uncontended lock is two atomic ops on
//    the futex fast path). When the ring is full the oldest events are
//    overwritten — a trace always holds the newest window.
//  - Tracing is DISABLED by default. Every call site guards on
//    `ObsRegistry::enabled()` (one relaxed atomic load + branch) before
//    reading clocks or calling out of line, so the disabled cost is near
//    zero — pinned by bench/trace_overhead.cpp and a CI gate.
//  - Timestamps come from `WallTimer`'s clock (std::chrono::steady_clock,
//    the same clock the serve layer's `ServeClock` aliases), expressed as
//    microseconds since the registry epoch.
//  - Export: Chrome trace-event JSON (chrome://tracing / Perfetto) and a
//    Prometheus-style text exposition of the metrics registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convbound/util/latency_histogram.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"
#include "convbound/util/timer.hpp"

namespace convbound {

/// The clock all trace timestamps are taken from.
using TraceClock = WallTimer::Clock;

/// Lifecycle stages of a request through the serving stack. Used both as
/// span/instant names in the Chrome trace and to tag shed/expiry reasons.
enum class TraceStage : std::uint8_t {
  kAdmit,      ///< instant: submit accepted (value = queue depth after)
  kShed,       ///< instant: submit rejected (value = ServeStatus code)
  kQueueWait,  ///< span: enqueue -> collect (value = ingest shard)
  kBatchForm,  ///< span: batch formation window (value = group size)
  kPlacement,  ///< instant: router decision (value = predicted batch seconds)
  kExecute,    ///< span: batch execution (value = modelled sim seconds)
  kLayerExec,  ///< span: one plan execution (value = modelled sim seconds)
  kComplete,   ///< instant: request completed (value = latency seconds)
  kExpire,     ///< instant: deadline exceeded (value = latency seconds)
};

const char* to_string(TraceStage stage);

enum class TracePhase : std::uint8_t {
  kSpan,     ///< Chrome "X" complete event (ts + dur)
  kInstant,  ///< Chrome "i" instant event
};

/// One POD trace event. `ts_us`/`dur_us` are microseconds since the
/// owning registry's epoch; ids are 0 / -1 when not applicable.
struct TraceEvent {
  double ts_us = 0;
  double dur_us = 0;
  double value = 0;
  std::uint64_t request_id = 0;
  std::uint64_t batch_id = 0;
  std::uint32_t tid = 0;     ///< recorder id (stamped by TraceRecorder)
  std::int32_t device = -1;  ///< device ordinal; -1 = front door / none
  TracePhase phase = TracePhase::kInstant;
  TraceStage stage = TraceStage::kAdmit;
};

/// Fixed-size ring of trace events. Writers are expected to be a single
/// thread per recorder; the mutex exists so a concurrent read observes
/// consistent events (and keeps the type TSan-clean).
class TraceRecorder {
 public:
  /// Appends `e` (stamping `e.tid` with this recorder's id), overwriting
  /// the oldest event when the ring is full. O(1), allocation-free.
  void record(TraceEvent e);

  /// Total events ever recorded (>= the number currently retained).
  std::uint64_t recorded() const;

  /// Events currently retained, oldest first.
  std::vector<TraceEvent> events() const;

  std::uint32_t id() const { return id_; }
  /// ring_ is sized once in the constructor and never resized, so its
  /// *capacity* is immutable and safe to read lock-free; only the element
  /// contents and head_ need mu_.
  std::size_t capacity() const CB_NO_THREAD_SAFETY_ANALYSIS {
    return ring_.size();
  }

 private:
  friend class ObsRegistry;
  TraceRecorder(std::uint32_t id, std::size_t capacity);
  void clear();

  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ CB_GUARDED_BY(mu_);
  std::uint64_t head_ CB_GUARDED_BY(mu_) = 0;  ///< next write = head_ % cap
  std::uint32_t id_ = 0;
};

/// Prometheus-style metric kinds.
enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// Owns trace recorders and a metrics registry, and renders both.
///
/// The process-wide instance is `ObsRegistry::global()`; the serving stack
/// records into it via the `obs::span`/`obs::instant` helpers below, which
/// are compiled away to a relaxed load + branch while tracing is disabled.
/// Tests may construct private registries (with small rings) and record
/// through explicit `create_recorder()` handles.
class ObsRegistry {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  explicit ObsRegistry(std::size_t ring_capacity = kDefaultRingCapacity);

  ObsRegistry(const ObsRegistry&) = delete;
  ObsRegistry& operator=(const ObsRegistry&) = delete;

  /// The process-wide registry the obs:: helpers record into.
  static ObsRegistry& global();

  /// Whether trace recording is on. Off by default; call sites check this
  /// before doing any tracing work (including reading clocks).
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Process-wide correlation-id generators (monotonic, start at 1).
  static std::uint64_t next_request_id();
  static std::uint64_t next_batch_id();

  /// This thread's recorder in this registry (created on first use). The
  /// returned reference is valid for the registry's lifetime; intended for
  /// long-lived registries (in particular `global()`).
  TraceRecorder& recorder();

  /// A fresh recorder owned by this registry (for tests / explicit wiring).
  TraceRecorder& create_recorder();

  /// All retained events across recorders, sorted by timestamp.
  std::vector<TraceEvent> events() const;

  /// Clears every ring (recorders stay registered).
  void clear();

  std::size_t num_recorders() const;

  /// Microseconds since this registry's construction (the trace epoch).
  double us_since_epoch(TraceClock::time_point tp) const;

  // ----- metrics registry -------------------------------------------------
  // `labels` is a pre-rendered Prometheus label body without braces, e.g.
  // `job="serve",class="paid"` (empty for none). Families are keyed by
  // name; re-setting a (name, labels) sample overwrites it.

  void set_counter(const std::string& name, const std::string& labels,
                   double value, const std::string& help = "");
  void set_gauge(const std::string& name, const std::string& labels,
                 double value, const std::string& help = "");
  void set_histogram(const std::string& name, const std::string& labels,
                     const LatencyHistogram& hist,
                     const std::string& help = "");

  // ----- export -----------------------------------------------------------

  /// Chrome trace-event JSON ({"traceEvents":[...]}) of `events()`.
  void dump_chrome_trace(std::ostream& os) const;

  /// Prometheus-style text exposition of the metrics registry. Histograms
  /// are emitted as cumulative `_bucket{le=...}` samples (seconds) over the
  /// LatencyHistogram's non-empty rungs, plus `_sum` and `_count`.
  void dump_metrics_text(std::ostream& os) const;

 private:
  struct MetricFamily {
    std::string help;
    MetricType type = MetricType::kGauge;
    std::map<std::string, double> samples;          // labels -> value
    std::map<std::string, LatencyHistogram> hists;  // labels -> histogram
  };

  void set_scalar(const std::string& name, const std::string& labels,
                  double value, MetricType type, const std::string& help);

  /// Relaxed by design: the flag is an on/off gate with no data published
  /// through it (every recorder has its own mutex), and the disabled fast
  /// path must stay one plain load + branch (bench/trace_overhead.cpp).
  static std::atomic<bool> enabled_;

  const TraceClock::time_point epoch_;
  const std::size_t ring_capacity_;

  /// Guards the recorder *list*; each ring locks its own mu_.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<TraceRecorder>> recorders_ CB_GUARDED_BY(mu_);

  mutable Mutex metrics_mu_;
  std::map<std::string, MetricFamily> metrics_ CB_GUARDED_BY(metrics_mu_);
};

// ----- record helpers -------------------------------------------------------
// Call-site API: `obs::span(...)` / `obs::instant(...)` record into the
// global registry's per-thread recorder. The inline wrappers check
// `ObsRegistry::enabled()` first, so when tracing is off each call costs one
// relaxed atomic load and a predictable branch. Guard any *extra* clock
// reads a call site needs behind `obs::on()`.

namespace obs {

inline bool on() { return ObsRegistry::enabled(); }

namespace detail {
void record_span(TraceStage stage, TraceClock::time_point begin,
                 TraceClock::time_point end, std::uint64_t request_id,
                 std::uint64_t batch_id, std::int32_t device, double value);
void record_instant(TraceStage stage, TraceClock::time_point at,
                    std::uint64_t request_id, std::uint64_t batch_id,
                    std::int32_t device, double value);
}  // namespace detail

inline void span(TraceStage stage, TraceClock::time_point begin,
                 TraceClock::time_point end, std::uint64_t request_id = 0,
                 std::uint64_t batch_id = 0, std::int32_t device = -1,
                 double value = 0) {
  if (!ObsRegistry::enabled()) return;
  detail::record_span(stage, begin, end, request_id, batch_id, device, value);
}

inline void instant(TraceStage stage, TraceClock::time_point at,
                    std::uint64_t request_id = 0, std::uint64_t batch_id = 0,
                    std::int32_t device = -1, double value = 0) {
  if (!ObsRegistry::enabled()) return;
  detail::record_instant(stage, at, request_id, batch_id, device, value);
}

}  // namespace obs

}  // namespace convbound
