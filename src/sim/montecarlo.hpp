// Seeded Monte-Carlo replication driver over the resettable Simulator.
//
// Fans `replications` seeds (first_seed, first_seed + 1, ...) across a
// ThreadPool (engine/thread_pool.hpp); every worker owns one Simulator + one histogram
// collector and simulates whole seed chunks, so the hot path allocates
// nothing and takes no locks.  Per-worker partial results are merged
// single-threaded after the fan-in; every merge (histogram counts, int64
// sums, min/max) is associative and commutative, and every sample is a
// pure function of its seed (see the determinism contract in
// exec_model.hpp) — so the aggregate is bit-identical for any thread
// count, chunking, or completion order.
//
// Collected per observed task, over all observed jobs of all runs:
//  * time disparity (max over source stamps - min over source stamps);
//  * data age (finish - oldest source stamp still reflected);
//  * reaction time (finish - release of each newly-reflected source job,
//    attributed via a per-(task, source) running maximum; the jittered
//    source releases are *recomputed* from the seed, which is what the
//    counter-based streams exist for).  With jitter windows larger than a
//    source period the attribution is approximate (samples clamp at 0).
//
// When analyzer bounds are supplied the driver cross-checks every
// empirical disparity sample against them (measured <= bound, the paper's
// Sim-vs-bound tightness experiment) and reports violations — the basis
// of the montecarlo_within_bounds verify property.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/task_graph.hpp"
#include "sim/options.hpp"

namespace ceta::sim {

struct MonteCarloOptions {
  /// Per-replication simulation options; `sim.seed` is ignored (seeds
  /// come from first_seed) and `sim.record_trace` must be off.
  SimOptions sim;
  std::uint64_t first_seed = 1;
  std::uint64_t replications = 1000;
  /// Worker threads; 0 = ThreadPool::default_concurrency().  Above
  /// ThreadPool::kMaxThreads the pool throws PreconditionError before any
  /// worker starts.  The result is bit-identical for every valid value.
  std::size_t num_threads = 0;
  /// Tasks whose jobs feed the histograms; empty = the graph's sinks.
  std::vector<TaskId> observed;
  /// Analyzer disparity bounds parallel to `observed` (requires an
  /// explicit `observed`); empty = no cross-check.
  std::vector<Duration> bounds;
  /// Test-only fault injection: scales every disparity sample before the
  /// bound check (verify uses it to prove the property can fail).  Keep
  /// at 1.
  std::int64_t fault_scale_samples = 1;

  /// InvalidOptionsError unless the combination makes sense for graph
  /// `g`: sim validates, replications >= 1, record_trace off, observed
  /// tasks exist, bounds (if any) parallel to an explicit observed,
  /// fault_scale_samples >= 1.
  void validate(const TaskGraph& g) const;
};

/// Fixed-footprint log2 histogram of durations (bucket k holds samples
/// with bit_width(ns) == k; nonpositive samples land in bucket 0).
struct EmpiricalHistogram {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t count = 0;
  Duration min_value = Duration::max();
  Duration max_value = Duration::min();
  std::int64_t sum_ns = 0;

  static std::size_t bucket_of(Duration v) {
    const std::int64_t ns = v.count();
    if (ns <= 0) return 0;
    return static_cast<std::size_t>(
        64 - __builtin_clzll(static_cast<std::uint64_t>(ns)));
  }

  void add(Duration v) {
    ++buckets[bucket_of(v)];
    ++count;
    min_value = std::min(min_value, v);
    max_value = std::max(max_value, v);
    sum_ns += v.count();
  }

  void merge(const EmpiricalHistogram& o) {
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
    count += o.count;
    min_value = std::min(min_value, o.min_value);
    max_value = std::max(max_value, o.max_value);
    sum_ns += o.sum_ns;
  }

  Duration mean() const {
    return count == 0 ? Duration::zero()
                      : Duration::ns(sum_ns / static_cast<std::int64_t>(count));
  }
};

/// Per-observed-task aggregate over all replications.
struct TaskMonteCarlo {
  TaskId task = 0;
  EmpiricalHistogram disparity;
  EmpiricalHistogram data_age;
  EmpiricalHistogram reaction;
  /// Bound cross-check (bound_checked when a bound was supplied).
  bool bound_checked = false;
  Duration bound = Duration::zero();
  std::uint64_t bound_violations = 0;
  /// Worst empirical disparity sample; tightness = worst / bound in
  /// [0, 1] when checked and bound > 0 (how close Sim gets to the bound).
  Duration worst_sample = Duration::zero();
  double tightness = 0.0;
};

struct MonteCarloResult {
  std::uint64_t replications = 0;
  std::uint64_t events = 0;
  std::uint64_t jobs_finished = 0;
  double wall_seconds = 0.0;
  double sims_per_sec = 0.0;
  double events_per_sec = 0.0;
  std::vector<TaskMonteCarlo> tasks;  ///< one per observed task
  /// False iff any disparity sample exceeded its supplied bound.
  bool all_within_bounds = true;
};

/// Run the fleet.  Validates options, fans out, merges, cross-checks.
MonteCarloResult run_monte_carlo(const TaskGraph& g,
                                 const MonteCarloOptions& opt);

}  // namespace ceta::sim
