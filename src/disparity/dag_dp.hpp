// DAG dynamic-programming disparity backend (DisparityBackend::kDagDp).
//
// The enumerating analyzer materializes the chain set P of the analyzed
// task and visits O(|P|²) pairs — unusable once |P| outgrows
// DisparityOptions::path_cap (dense 10⁴–10⁵-task graphs reach 10⁹⁺
// chains).  This backend instead propagates *aggregated path summaries*
// over the topological order of the task's ancestor cone, generalizing the
// pairwise kernel's observation that both backward-time bounds of a chain
// are per-hop sums:
//
//   W(π) = Σ_hops (θ + fifo_upper)                        (Lemma 4)
//   B(π) = Σ_tasks bcet − R(tail) + Σ fifo_lower          (all-implicit)
//        | Σ_hops b-term + Σ fifo_lower                   (mixed/LET)
//
// Per (task, source) the DP keeps, separately for the all-implicit-so-far
// ("class I", both B currencies — a LET task later in the chain switches
// the branch) and the has-LET ("class L") chain sets, the top-2 of W and
// the top-2 of −B with achiever counts.  Those aggregates are closed
// under edge extension (a per-edge constant shift) and under merging at
// join vertices, and at the sink they answer
//
//   max over distinct chains a ≠ b of  W(a) − B(b)
//
// per source (floored to the source period when jitter-free — Theorem 1's
// same-source refinement) and across sources, in O(V + E·S) where S is
// the number of sources in the cone, without materializing a single
// chain.  That maximum is exactly the worst case of the enumerating
// analyzer whenever every pair is bounded by Theorem 1 on the full
// chains, which holds in two statically detectable cases (DESIGN.md §10):
//
//   1. joint-free cone: no task other than the sink lies on two distinct
//      chains (up[u]·down[u] == 1 for every non-sink cone task) — every
//      pair is structure-free, so every method × truncation combination
//      degenerates to Theorem 1 on the full chains; and
//   2. DisparityMethod::kIndependent with truncation off.
//
// Otherwise the result is a *relaxed* safe upper bound (each fork–join or
// truncated pair bound is clamped by Theorem 1 on the full chains), equal
// by construction to the kIndependent + kNever enumeration, and the
// report carries exact = false.  analyze_time_disparity_backend() adds
// the automatic exact fallback: when exactness demands enumeration and
// the instance is enumerable under path_cap, it routes to the pairwise
// kernel instead.

#pragma once

#include <cstddef>
#include <functional>

#include "disparity/analyzer.hpp"
#include "graph/paths.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta {

/// Tuning knobs (and the test-only fault hook) of the DP backend.
struct DagDpOptions {
  /// Cap on live (task, source) summary entries of the per-source DP.
  /// Beyond it the analysis restarts with source-agnostic global
  /// aggregates — O(V) memory, still a safe bound, exact only for
  /// joint-free cones (the per-source flooring is lost otherwise).
  std::size_t state_budget = 1'500'000;
  /// Cap on the number of cone sources for which the source-pair scan
  /// (KeepPairs::kTopK / kAll over S(S+1)/2 source pairs) runs; beyond
  /// it only the single worst source pair is reported.
  std::size_t source_pair_scan_cap = 2'048;
  /// Test-only fault: subtract the worst witness source's period from the
  /// final worst_case (the classic dropped-period off-by-one, injected
  /// into the DP combination step).  The dag_dp_matches_enumeration
  /// verify property must flag the divergence; never set in production.
  bool fault_drop_source_period = false;
};

/// Run the DAG DP on `task` unconditionally (never falls back to
/// enumeration): serves the exact cases exactly and everything else as a
/// DP-relaxed safe upper bound with DisparityReport::exact == false.  The
/// report has backend == kDagDp, truncated == true, empty chains/pairs,
/// and source-granularity worst pairs in source_pairs.  `opt.backend` is
/// ignored (callers route; see analyze_time_disparity_backend).
/// Preconditions: every cone task needs a finite WCRT in `rtm`, and every
/// chain's backward bounds must satisfy bcbt <= wcbt (sampling_window's
/// precondition — it is what lets the DP track maxima only); the DP
/// checks the latter in O(1) per summary via a tracked max(B − W) witness
/// and throws PreconditionError on violation.
DisparityReport analyze_time_disparity_dag_dp(const TaskGraph& g, TaskId task,
                                              const ResponseTimeMap& rtm,
                                              const DisparityOptions& opt = {},
                                              const DagDpOptions& dp = {});

/// The one DisparityBackend router, shared by
/// analyze_time_disparity_backend and AnalysisEngine::disparity:
///  - kEnumerate: `enumerate()`; CapacityError beyond path_cap.
///  - kAuto: `enumerate()` when the (overflow-checked) chain count fits
///    under path_cap, the DP otherwise — never throws CapacityError.
///  - kDagDp: the DP, except that when its result would be inexact and
///    the instance is enumerable `enumerate()` serves the query instead
///    (the report's `backend` field records which one ran) and the
///    global `disparity.dagdp.fallbacks` counter is bumped.
/// `enumerate` runs the pairwise kernel on `task`'s source chains; the
/// free front door enumerates them, the engine passes its memoized set.
DisparityReport route_disparity_backend(
    const TaskGraph& g, TaskId task, const ResponseTimeMap& rtm,
    const DisparityOptions& opt, const DagDpOptions& dp,
    const std::function<DisparityReport()>& enumerate);

/// The backend-routing front door: validates `opt`, then
/// route_disparity_backend with analyze_time_disparity_kernel as the
/// enumerating backend.
DisparityReport analyze_time_disparity_backend(const TaskGraph& g, TaskId task,
                                               const ResponseTimeMap& rtm,
                                               const DisparityOptions& opt = {},
                                               const DagDpOptions& dp = {});

}  // namespace ceta
