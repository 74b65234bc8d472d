// Metrics registry — named counters, gauges and duration histograms for
// the analysis stack, snapshot-exportable as JSON.
//
// Three instrument kinds:
//   * Counter   — monotonically increasing uint64 (cache hits, RTA runs,
//                 simulator events).  Relaxed atomic add; safe to bump
//                 from any thread.
//   * Gauge     — last-set int64 (configured thread count, queue depth).
//   * DurationHistogram — log2-bucketed nanosecond durations with
//                 count/sum/min/max and interpolated p50/p95/p99.
//
// Usage pattern: resolve instruments ONCE (construction, session setup) —
// `counter()` takes a registry mutex — then increment through the returned
// reference, which is wait-free and stable for the registry's lifetime.
// Hot loops should accumulate locally and flush once (see
// sim/simulator.cpp).
//
// Simulator counter taxonomy (global registry, one flush per run/batch):
//   sim.runs / sim.events / sim.jobs_finished / sim.preemptions
//       — the Simulator (sim/simulator.cpp), the one simulator;
//   sim.mc.replications / sim.mc.events — Monte-Carlo driver totals
//       (per-replication counts are already folded into sim.*).
// Matching span categories: "sim" with names "simulator.run",
// "simulator.run_batch" and "montecarlo.run".
//
// `MetricsRegistry::global()` is the process-wide registry used by the
// free analysis functions and the simulator; `AnalysisEngine` owns a
// private registry per session so per-engine cache statistics do not
// bleed across engines (engine/analysis_engine.hpp).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace ceta::obs {

class JsonWriter;

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Lock-free histogram over non-negative durations.  Bucket i counts
/// samples whose nanosecond value has bit-width i (i.e. lies in
/// [2^(i-1), 2^i)); percentiles interpolate linearly inside a bucket, so
/// they carry at most one octave of error — plenty for attributing time
/// across analysis stages.
class DurationHistogram {
 public:
  struct Snapshot {
    std::uint64_t count = 0;
    Duration sum = Duration::zero();
    Duration min = Duration::zero();
    Duration max = Duration::zero();
    Duration p50 = Duration::zero();
    Duration p95 = Duration::zero();
    Duration p99 = Duration::zero();
  };

  void observe(Duration d);
  Snapshot snapshot() const;

 private:
  static constexpr std::size_t kBuckets = 64;
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_ns_{0};
  std::atomic<std::int64_t> min_ns_{INT64_MAX};
  std::atomic<std::int64_t> max_ns_{0};
};

/// Point-in-time copy of a registry, ordered by instrument name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, DurationHistogram::Snapshot>> histograms;

  /// Value of a counter by exact name; 0 when absent.
  std::uint64_t counter(std::string_view name) const;

  /// Serialize as one JSON value (object with "counters", "gauges",
  /// "histograms" members) into an in-flight writer.
  void write_json(JsonWriter& w) const;
  /// Standalone pretty-printed JSON document.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get by name.  The returned reference stays valid for the
  /// registry's lifetime; resolving takes a mutex, using the instrument
  /// does not.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  DurationHistogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// The process-wide registry (free functions, simulator, benches).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  // std::map: stable nodes (references survive inserts) and name-sorted
  // iteration for deterministic snapshots.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<DurationHistogram>, std::less<>>
      histograms_;
};

}  // namespace ceta::obs
