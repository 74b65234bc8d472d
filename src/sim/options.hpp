// Shared option/result contract of the simulation front doors.
//
// SimOptions is consumed by two entry points — the resettable
// sim::Simulator (simulator.hpp) and the Monte-Carlo replication driver
// (montecarlo.hpp) — both of which funnel through the same validate()
// gate, mirroring the DisparityOptions contract: a nonsensical
// combination raises InvalidOptionsError before any simulation state is
// built, instead of silently producing an empty trace.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/task_graph.hpp"
#include "sched/npfp_rta.hpp"
#include "sim/exec_model.hpp"
#include "sim/trace.hpp"

namespace ceta {

struct SimOptions {
  /// Dispatching-discipline override.  nullopt (the default) simulates
  /// each ECU under its own TaskGraph::policy(); setting a value forces
  /// that discipline on every ECU.  kPreemptive suspends the running job
  /// whenever a higher-priority job is released on its ECU; kEdf whenever
  /// a ready job has a strictly earlier absolute deadline (release +
  /// period).  Implicit communication reads stay at the job's *first*
  /// start under every discipline.
  std::optional<SchedPolicy> policy;
  /// Simulated horizon; jobs released at t < duration are processed to
  /// completion.
  Duration duration = Duration::s(1);
  /// Jobs released before this instant are excluded from disparity
  /// statistics (lets FIFO buffers fill — Lemma 6 holds "in the long
  /// term").
  Duration warmup = Duration::zero();
  /// Base seed of the run's counter-based draw streams (exec_model.hpp).
  /// Identical (graph, options, seed) triples replay bit-identically.
  std::uint64_t seed = 1;
  ExecTimeModel exec_model = ExecTimeModel::kUniform;
  ExecTimeHook exec_hook;  ///< used when exec_model == kCustom
  /// Record a full trace (memory ∝ number of jobs).
  bool record_trace = false;
  /// Hard cap on processed jobs; CapacityError beyond it.
  std::uint64_t max_jobs = 100'000'000;

  /// Throws InvalidOptionsError unless the combination is simulatable:
  ///  * duration must be positive and warmup must lie in [0, duration);
  ///  * max_jobs must be >= 1;
  ///  * exec_model == kCustom requires exec_hook, and a hook is rejected
  ///    under any other model (it would be silently ignored).
  /// Shared verbatim by Simulator and the Monte-Carlo driver.
  void validate() const;
};

struct SimResult {
  /// Per task: maximum observed time disparity over jobs released in
  /// [warmup, duration); zero when no job carried >= 1 source stamp.
  std::vector<Duration> max_disparity;
  /// Per task: number of jobs whose disparity was observed.
  std::vector<std::int64_t> jobs_observed;
  /// Per task: total finished jobs.
  std::vector<std::int64_t> jobs_finished;
  /// Per task: maximum observed response time (sanity/schedulability).
  std::vector<Duration> max_response_time;
  /// Per task: times one of its jobs was preempted (always 0 under
  /// non-preemptive dispatch).
  std::vector<std::int64_t> preemptions;
  /// Present when SimOptions::record_trace.
  Trace trace;
};

}  // namespace ceta
