// Design-space loops on an AnalysisEngine.
//
// The extensions of §IV — the buffer-memory Pareto sweep, parameter
// sensitivity and LET offset synthesis — all follow the same shape: edit
// the graph a little, re-analyze, compare, repeat.  They run through
// AnalysisEngine's mutation API, so each probe pays only for the caches
// its edit actually dirtied (DESIGN.md §9): the RTA refresh is scoped to
// the edited ECU cohort, untouched sinks keep their reports, and so on.
// (The multi-chain buffer design itself is the const query
// AnalysisEngine::optimize_buffers.)
//
// Every function here restores the engine's graph to its pre-call state
// before returning, also on exceptions; a failed restore surfaces as
// RollbackError carrying both messages.  tests/test_engine_incremental.cpp
// checks every result against the analyzers run on an explicitly edited
// copy of the graph.
//
// These live in engine/ (not disparity/) because they link against
// AnalysisEngine; disparity/ stays engine-free.

#pragma once

#include <cstddef>
#include <vector>

#include "disparity/buffer_opt.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/paths.hpp"
#include "sched/audsley.hpp"

namespace ceta {

/// @brief Audsley-seeded priority assignment, committed through the
/// mutation API.  Runs assign_priorities_audsley on a scratch copy of
/// `engine`'s graph under the engine's own RtaOptions; when the
/// assignment is feasible, every changed priority is committed as one
/// Transaction (batch-validated, strong guarantee).  The natural starting
/// point of a design-space exploration (explore/explorer.hpp).
/// @param engine  Engine owning the graph.  Must own its RTA (priority
///   edits are rejected in external-rtm mode).
/// @return As assign_priorities_audsley: the engine's graph carries the
///   Audsley assignment iff `feasible`, and is untouched otherwise
///   (pinned against the free function by tests/test_explore.cpp).
/// Complexity: the OPA feasibility runs dominate; the commit costs one
/// invalidation walk over the edited cohorts.
AudsleyResult seed_priorities(AnalysisEngine& engine);

// --- Buffer-memory / disparity Pareto sweep --------------------------------
//
// Algorithm 1 jumps straight to the midpoint-aligning FIFO size, but a
// deployment may have a token-memory budget.  Each intermediate size n
// shifts the window by (n−1)·T(head), and the Theorem 3 argument applies
// verbatim as long as the shift stays at or below the aligning one; every
// point is additionally clamped by the Theorem 2 re-analysis at that size,
// so each entry is a safe bound on its own.

/// One point of the memory/disparity trade-off curve.
struct ParetoPoint {
  /// FIFO size on the Algorithm 1 channel (1 = unbuffered).
  int buffer_size = 1;
  /// Window shift (buffer_size − 1) · T(head).
  Duration shift;
  /// Safe worst-case disparity bound at this size.
  Duration bound;
};

/// @brief Bound-vs-buffer-size curve of one chain pair from size 1 up to
/// the Algorithm 1 design, resizing the Algorithm 1 channel in place via
/// the mutation API.
/// @param engine     Engine owning the graph (restored before returning).
/// @param lambda,nu  The chain pair (both ending at the same task).
/// @param method     Hop-bound method for the Theorem 2 windows.
/// @return One point per size (a single point when the windows are
///   already aligned); point n is min(baseline − (n−1)·T(head),
///   sdiff_pair_bound at FIFO size n).  Bounds are non-increasing.
/// Complexity: O(design size) Theorem 2 re-evaluations over the engine's
/// memoized RTA (a resize dirties no RTA entry).
std::vector<ParetoPoint> buffer_pareto(
    AnalysisEngine& engine, const Path& lambda, const Path& nu,
    HopBoundMethod method = HopBoundMethod::kNonPreemptive);

// --- Parameter sensitivity ---------------------------------------------------
//
// §IV's motivating observation (Fig. 4) is that the "obvious" knob —
// sampling a middle task faster — often does not move the worst case at
// all, because the disparity is governed by the WCBT of one chain against
// the BCBT of another.  The scan perturbs each ancestor task's period
// (faster sampling) and WCET (lighter execution) in isolation, re-runs the
// scheduling + disparity analysis, and ranks the parameters by how much
// the bound moves.

/// Which parameter a sensitivity probe perturbed.
enum class PerturbedParam {
  kPeriod,  ///< period scaled by period_factor (default: 2x faster)
  kWcet,    ///< WCET scaled by wcet_factor (BCET clamped to stay <= WCET)
};

/// Knobs of disparity_sensitivity.  The RTA runs under the engine's
/// EngineOptions::rta.
struct SensitivityOptions {
  /// Multiplier applied to a task's period (default 0.5 = double rate).
  double period_factor = 0.5;
  /// Multiplier applied to a task's WCET (default 0.5 = half the work).
  double wcet_factor = 0.5;
  DisparityOptions disparity;  ///< analyzer options for both bounds
};

/// One (task, parameter) probe of the sensitivity scan.
struct SensitivityEntry {
  TaskId task = 0;                                ///< perturbed task
  PerturbedParam param = PerturbedParam::kPeriod;  ///< perturbed knob
  /// Bound before / after the perturbation; `schedulable` is false when
  /// the perturbed system lost schedulability (perturbed then meaningless).
  Duration baseline;        ///< bound with original parameters
  Duration perturbed;       ///< bound with the perturbation applied
  bool schedulable = true;  ///< perturbed system still schedulable?

  /// perturbed − baseline (negative = the perturbation helps).
  Duration delta() const { return perturbed - baseline; }
};

/// @brief Sensitivity of `task`'s disparity bound to every ancestor's
/// period and WCET, probing each perturbation through the mutation API.
/// @param engine  Engine owning the graph (restored before returning).
///   Must own its RTA (not external-rtm mode): each probe refreshes the
///   edited cohort.
/// @param task    Analyzed fusion task.
/// @param opt     Perturbation factors and analyzer options.
/// @return Entries sorted by |delta| descending (unschedulable entries
///   last).  A probe is unschedulable when any ancestor of `task` loses
///   schedulability; its `perturbed` then repeats the baseline.  Source
///   WCETs are zero and are skipped.
/// @throws PreconditionError on a bad task id, non-positive factors or an
///   unschedulable baseline.
/// Complexity: O(ancestors) probes; each re-runs only the perturbed ECU
/// cohort's fixpoints plus the dirtied bounds, instead of the whole graph.
std::vector<SensitivityEntry> disparity_sensitivity(
    AnalysisEngine& engine, TaskId task, const SensitivityOptions& opt = {});

// --- LET offset synthesis ----------------------------------------------------
//
// In a fully LET ancestor closure the disparity is an exact function of
// the release offsets (disparity/exact.hpp), which turns §IV's problem on
// its head: instead of buffering channels, *plan the release phases*.  The
// planner runs coordinate descent over the tunable offsets — sweeping each
// one over [0, T) on a grid and keeping the argmin of the exact disparity.
// Complementary to buffers: offsets need control over sensor phases
// (time-triggered buses / synchronized clocks), buffers only need memory.

/// Which offsets the planner may move.  Under LET every closure task's
/// offset is a schedule-table parameter, and middle-task phases matter as
/// much as sensor phases (each LET hop re-quantizes the data onto the
/// consumer's release grid); restricting to sources models systems where
/// only the sensors are phase-controllable.
enum class OffsetTunables { kAllClosureTasks, kSourcesOnly };

/// Knobs of plan_source_offsets.
struct OffsetPlanOptions {
  /// Which offsets the coordinate descent may move.
  OffsetTunables tunables = OffsetTunables::kAllClosureTasks;
  /// Offset grid step for the sweep; must be positive.  1 ms matches the
  /// WATERS period lattice.
  Duration granularity = Duration::ms(1);
  /// Coordinate-descent passes over the tunable tasks.
  int passes = 2;
  /// Chain-enumeration capacity (CapacityError beyond).
  std::size_t path_cap = kDefaultPathCap;
  /// Exact-oracle release cap per evaluation (CapacityError beyond).
  std::size_t max_releases = 1'000'000;
  /// TEST ONLY — throw a planted ceta::Error("injected offset-sweep
  /// fault") once this many exact-oracle evaluations have run (0 = never).
  /// Exists so the mid-sweep rollback path can be exercised
  /// deterministically: tests assert the planted message survives the
  /// offset restore verbatim.  Never set in production code.
  std::size_t fault_fail_after_evaluations = 0;
};

/// One tuned offset of an OffsetPlan.
struct OffsetAssignment {
  TaskId task = 0;  ///< the task whose offset was planned
  Duration offset;  ///< planned release offset, in [0, T)
};

/// Result of plan_source_offsets.
struct OffsetPlan {
  /// Exact disparity before / after the synthesis.
  Duration baseline;
  Duration optimized;  ///< exact disparity under the planned offsets
  /// The tuned offsets of the optimized assignment.
  std::vector<OffsetAssignment> offsets;
  /// Number of exact evaluations performed.
  std::size_t evaluations = 0;
};

/// @brief Plan release offsets minimizing the exact worst-case disparity
/// of `task`, sweeping offsets through the mutation API (offset edits
/// invalidate nothing, §9 row "offset" — the exact evaluator is the only
/// consumer).
/// @param engine  Engine owning the graph; offsets are restored before
///   returning.  Apply the result with apply_offset_plan.
/// @param task    Analyzed task (same preconditions as exact_let_disparity).
/// @param opt     Sweep configuration.
/// @return The plan; `optimized` equals exact_let_disparity on the graph
///   with the plan applied.
/// Complexity: evaluations × exact_let_disparity; no graph copies.
OffsetPlan plan_source_offsets(AnalysisEngine& engine, TaskId task,
                               const OffsetPlanOptions& opt = {});

/// @brief Write a plan's offsets into a graph.
void apply_offset_plan(TaskGraph& g, const OffsetPlan& plan);

}  // namespace ceta
