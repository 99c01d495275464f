#include "convbound/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>

namespace convbound {

const char* to_string(TraceStage stage) {
  switch (stage) {
    case TraceStage::kAdmit: return "admit";
    case TraceStage::kShed: return "shed";
    case TraceStage::kQueueWait: return "queue_wait";
    case TraceStage::kBatchForm: return "batch_form";
    case TraceStage::kPlacement: return "placement";
    case TraceStage::kExecute: return "execute";
    case TraceStage::kLayerExec: return "layer_exec";
    case TraceStage::kComplete: return "complete";
    case TraceStage::kExpire: return "expire";
  }
  return "?";
}

// ---------------------------------------------------------- TraceRecorder --

TraceRecorder::TraceRecorder(std::uint32_t id, std::size_t capacity)
    : id_(id) {
  ring_.resize(capacity == 0 ? 1 : capacity);
}

void TraceRecorder::record(TraceEvent e) {
  e.tid = id_;
  MutexLock lock(mu_);
  ring_[head_ % ring_.size()] = e;
  ++head_;
}

std::uint64_t TraceRecorder::recorded() const {
  MutexLock lock(mu_);
  return head_;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  MutexLock lock(mu_);
  const std::size_t cap = ring_.size();
  const std::size_t n = head_ < cap ? static_cast<std::size_t>(head_) : cap;
  std::vector<TraceEvent> out;
  out.reserve(n);
  const std::uint64_t first = head_ - n;
  for (std::uint64_t i = first; i < head_; ++i) out.push_back(ring_[i % cap]);
  return out;
}

void TraceRecorder::clear() {
  MutexLock lock(mu_);
  head_ = 0;
}

// ------------------------------------------------------------ ObsRegistry --

std::atomic<bool> ObsRegistry::enabled_{false};

ObsRegistry::ObsRegistry(std::size_t ring_capacity)
    : epoch_(TraceClock::now()), ring_capacity_(ring_capacity) {}

ObsRegistry& ObsRegistry::global() {
  static ObsRegistry* reg = new ObsRegistry();  // leaked: outlives all threads
  return *reg;
}

std::uint64_t ObsRegistry::next_request_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t ObsRegistry::next_batch_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

TraceRecorder& ObsRegistry::recorder() {
  // One cached recorder per (thread, registry). A thread that alternates
  // between registries re-registers on each switch; the intended use is a
  // handful of long-lived registries (above all `global()`).
  thread_local ObsRegistry* cached_reg = nullptr;
  thread_local TraceRecorder* cached = nullptr;
  if (cached_reg != this) {
    cached = &create_recorder();
    cached_reg = this;
  }
  return *cached;
}

TraceRecorder& ObsRegistry::create_recorder() {
  MutexLock lock(mu_);
  const std::uint32_t id = static_cast<std::uint32_t>(recorders_.size());
  recorders_.emplace_back(new TraceRecorder(id, ring_capacity_));
  return *recorders_.back();
}

std::vector<TraceEvent> ObsRegistry::events() const {
  std::vector<TraceEvent> all;
  {
    MutexLock lock(mu_);
    for (const auto& r : recorders_) {
      std::vector<TraceEvent> part = r->events();
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return all;
}

void ObsRegistry::clear() {
  MutexLock lock(mu_);
  for (const auto& r : recorders_) r->clear();
}

std::size_t ObsRegistry::num_recorders() const {
  MutexLock lock(mu_);
  return recorders_.size();
}

double ObsRegistry::us_since_epoch(TraceClock::time_point tp) const {
  return std::chrono::duration<double, std::micro>(tp - epoch_).count();
}

// ----- metrics --------------------------------------------------------------

void ObsRegistry::set_counter(const std::string& name,
                              const std::string& labels, double value,
                              const std::string& help) {
  set_scalar(name, labels, value, MetricType::kCounter, help);
}

void ObsRegistry::set_gauge(const std::string& name, const std::string& labels,
                            double value, const std::string& help) {
  set_scalar(name, labels, value, MetricType::kGauge, help);
}

void ObsRegistry::set_scalar(const std::string& name,
                             const std::string& labels, double value,
                             MetricType type, const std::string& help) {
  MutexLock lock(metrics_mu_);
  MetricFamily& fam = metrics_[name];
  fam.type = type;
  if (!help.empty()) fam.help = help;
  fam.samples[labels] = value;
}

void ObsRegistry::set_histogram(const std::string& name,
                                const std::string& labels,
                                const LatencyHistogram& hist,
                                const std::string& help) {
  MutexLock lock(metrics_mu_);
  MetricFamily& fam = metrics_[name];
  fam.type = MetricType::kHistogram;
  if (!help.empty()) fam.help = help;
  fam.hists[labels] = hist;
}

// ----- export ---------------------------------------------------------------

namespace {

// Shortest %g that keeps trace timestamps sub-microsecond exact.
void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

void ObsRegistry::dump_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> evs = events();

  std::string out;
  out.reserve(evs.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Process metadata: pid 0 is the front door (events with no device),
  // pid d+1 is device ordinal d.
  std::set<std::int32_t> pids;
  for (const TraceEvent& e : evs) pids.insert(e.device < 0 ? 0 : e.device + 1);
  bool first = true;
  for (std::int32_t pid : pids) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    append_number(out, pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    if (pid == 0) {
      out += "front door";
    } else {
      out += "device ";
      append_u64(out, static_cast<std::uint64_t>(pid - 1));
    }
    out += "\"}}";
  }

  for (const TraceEvent& e : evs) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += to_string(e.stage);
    out += "\",\"cat\":\"convbound\",\"ph\":\"";
    switch (e.phase) {
      case TracePhase::kSpan: out += 'X'; break;
      case TracePhase::kInstant: out += 'i'; break;
    }
    out += "\",\"ts\":";
    append_number(out, e.ts_us);
    if (e.phase == TracePhase::kSpan) {
      out += ",\"dur\":";
      append_number(out, e.dur_us);
    }
    if (e.phase == TracePhase::kInstant) out += ",\"s\":\"t\"";
    out += ",\"pid\":";
    append_number(out, e.device < 0 ? 0 : e.device + 1);
    out += ",\"tid\":";
    append_number(out, e.tid);
    out += ",\"args\":{\"request_id\":";
    append_u64(out, e.request_id);
    out += ",\"batch_id\":";
    append_u64(out, e.batch_id);
    out += ",\"value\":";
    append_number(out, e.value);
    out += "}}";
  }
  out += "]}";
  os << out;
}

void ObsRegistry::dump_metrics_text(std::ostream& os) const {
  MutexLock lock(metrics_mu_);
  std::string out;
  for (const auto& [name, fam] : metrics_) {
    if (!fam.help.empty()) out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " ";
    switch (fam.type) {
      case MetricType::kCounter: out += "counter"; break;
      case MetricType::kGauge: out += "gauge"; break;
      case MetricType::kHistogram: out += "histogram"; break;
    }
    out += '\n';
    for (const auto& [labels, value] : fam.samples) {
      out += name;
      if (!labels.empty()) out += "{" + labels + "}";
      out += ' ';
      append_number(out, value);
      out += '\n';
    }
    for (const auto& [labels, hist] : fam.hists) {
      const std::string prefix = labels.empty() ? "" : labels + ",";
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        const std::uint64_t c = hist.bucket_count(b);
        if (c == 0) continue;
        cum += c;
        out += name + "_bucket{" + prefix + "le=\"";
        // The overflow bucket has an unbounded upper edge.
        if (b + 1 == LatencyHistogram::kBuckets) {
          out += "+Inf";
        } else {
          append_number(out, hist.bucket_upper(b));
        }
        out += "\"} ";
        append_u64(out, cum);
        out += '\n';
      }
      out += name + "_bucket{" + prefix + "le=\"+Inf\"} ";
      append_u64(out, hist.count());
      out += '\n';
      out += name + "_sum";
      if (!labels.empty()) out += "{" + labels + "}";
      out += ' ';
      append_number(out, hist.sum());
      out += '\n';
      out += name + "_count";
      if (!labels.empty()) out += "{" + labels + "}";
      out += ' ';
      append_u64(out, hist.count());
      out += '\n';
    }
  }
  os << out;
}

// ----- record helpers -------------------------------------------------------

namespace obs {
namespace detail {

void record_span(TraceStage stage, TraceClock::time_point begin,
                 TraceClock::time_point end, std::uint64_t request_id,
                 std::uint64_t batch_id, std::int32_t device, double value) {
  ObsRegistry& reg = ObsRegistry::global();
  TraceEvent e;
  e.phase = TracePhase::kSpan;
  e.stage = stage;
  e.ts_us = reg.us_since_epoch(begin);
  e.dur_us = std::max(0.0, reg.us_since_epoch(end) - e.ts_us);
  e.request_id = request_id;
  e.batch_id = batch_id;
  e.device = device;
  e.value = value;
  reg.recorder().record(e);
}

void record_instant(TraceStage stage, TraceClock::time_point at,
                    std::uint64_t request_id, std::uint64_t batch_id,
                    std::int32_t device, double value) {
  ObsRegistry& reg = ObsRegistry::global();
  TraceEvent e;
  e.phase = TracePhase::kInstant;
  e.stage = stage;
  e.ts_us = reg.us_since_epoch(at);
  e.request_id = request_id;
  e.batch_id = batch_id;
  e.device = device;
  e.value = value;
  reg.recorder().record(e);
}

}  // namespace detail
}  // namespace obs

}  // namespace convbound
