// Shared plumbing for the benchmark harness.
//
// The paper-figure benches (fig09, fig10, fig12, fig13, table2, the
// optimality ablation) model every number as a closed-form count: each
// point plans or tunes its kernel and counts the launch (count_plan,
// direct_tiled_count, the counting BatchMeasurer), the LaunchStats the
// SimGpu would report if the kernel ran, so no kernel executes. A count
// takes microseconds, so these benches compute their points and print the
// paper-style summary directly. The benches that time real work (fig11's
// tuners, the serving and cluster load generators) register single-
// iteration google-benchmarks (the simulator is deterministic, so
// repetition adds nothing) and print their summary after
// benchmark::RunSpecifiedBenchmarks() (run_all).
//
// Problem sizes are scaled down from the paper's (C_in 256 -> 64, image
// sizes capped at 112); each bench's header records its scaled shapes. The
// *shapes* of the results (who wins, how speedups trend with H_in / mu /
// C_out) are the reproduction target, not absolute GFlops.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "convbound/convbound.hpp"

namespace convbound::bench {

/// Minimal ordered JSON emitter for machine-readable BENCH_*.json files —
/// dependency-free, enough for flat objects, arrays and one nesting level.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    return add_raw(key, fmt_number(v));
  }
  JsonObject& add(const std::string& key, int v) {
    return add_raw(key, std::to_string(v));
  }
  // Exact (doubles go through a 6-significant-digit formatter; seeds and
  // counters must round-trip).
  JsonObject& add(const std::string& key, std::uint64_t v) {
    return add_raw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, bool v) {
    return add_raw(key, v ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& v) {
    return add_raw(key, quote(v));
  }
  // Without this overload a string literal would convert to bool.
  JsonObject& add(const std::string& key, const char* v) {
    return add_raw(key, quote(v));
  }
  JsonObject& add(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ",";
      out += fmt_number(v[i]);
    }
    return add_raw(key, out + "]");
  }
  JsonObject& add(const std::string& key, const std::vector<int>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(v[i]);
    }
    return add_raw(key, out + "]");
  }
  /// Pre-serialised value (a nested object or array of objects).
  JsonObject& add_raw(const std::string& key, const std::string& raw) {
    if (!fields_.empty()) fields_ += ",";
    fields_ += quote(key) + ":" + raw;
    return *this;
  }
  std::string to_string() const { return "{" + fields_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
  static std::string fmt_number(double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  }

 private:
  std::string fields_;
};

/// CI smoke scale for the serving/cluster load generators.
inline bool serve_smoke() {
  return std::getenv("CONVBOUND_SERVE_SMOKE") != nullptr;
}

/// Request-input RNG seed for the serving/cluster benches: a per-bench
/// fixed default, overridable with CONVBOUND_BENCH_SEED, and recorded in
/// the bench JSON so CI regression comparisons reproduce bit-for-bit.
inline std::uint64_t bench_seed(std::uint64_t default_seed) {
  const char* s = std::getenv("CONVBOUND_BENCH_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : default_seed;
}

/// Joins pre-serialised JSON values into an array.
inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += items[i];
  }
  return out + "]";
}

/// Writes a BENCH_<name>.json trajectory file next to the working directory
/// (override the directory with CONVBOUND_BENCH_DIR).
inline void write_bench_json(const std::string& bench_name,
                             const JsonObject& obj) {
  const char* dir = std::getenv("CONVBOUND_BENCH_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) + "BENCH_" +
      bench_name + ".json";
  std::ofstream out(path, std::ios::trunc);
  CB_CHECK_MSG(out.good(), "cannot write bench json '" << path << "'");
  out << obj.to_string() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

inline ConvShape make_shape(std::int64_t batch, std::int64_t cin,
                            std::int64_t hw, std::int64_t cout,
                            std::int64_t k, std::int64_t stride,
                            std::int64_t pad) {
  ConvShape s;
  s.batch = batch;
  s.cin = cin;
  s.hin = s.win = hw;
  s.cout = cout;
  s.kh = s.kw = k;
  s.stride = stride;
  s.pad = pad;
  s.validate();
  return s;
}

/// Plans `algos` on `gpu` (one algorithm, or a best-of such as
/// kCudnnBaselinePair) and counts the plan on NCHW input: the LaunchStats
/// run_plan would return, as model inference reports them.
inline LaunchStats run_planned(SimGpu& gpu, const ConvShape& s,
                               const std::vector<ConvAlgorithm>& algos,
                               const PlannerOptions& opts = {}) {
  Planner planner;
  const ConvPlan plan = planner.plan_algorithm(gpu, s, algos, opts);
  return count_plan(gpu.spec(), plan, Layout::kNCHW);
}

/// Standard bench main: run all registered benchmarks, then the summary.
inline int run_all(int argc, char** argv,
                   const std::function<void()>& print_summary) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}

}  // namespace convbound::bench
