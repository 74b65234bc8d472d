// Worst-case response-time analysis for non-preemptive fixed-priority
// scheduling (NP-FP).
//
// The paper assumes each task's WCRT R(τ) is known from standard analyses
// ([12], [13] in the paper).  We implement the classic busy-period NP-FP
// analysis (as used for CAN): for task i on its resource,
//
//   blocking  B_i       = max { W_l : l lower priority than i, same ECU }
//   busy len  L         = fixpoint of  L = B_i + Σ_{j ∈ hp(i) ∪ {i}} ceil(L/T_j)·W_j
//   instances Q         = ceil(L / T_i)
//   queueing  w_i(q)    = fixpoint of  w = B_i + q·W_i +
//                                      Σ_{j ∈ hp(i)} (floor(w/T_j)+1)·W_j
//   response  R_i       = max_{0<=q<Q} ( w_i(q) + W_i − q·T_i )
//
// The (floor(w/T)+1) term counts higher-priority releases in [0, w]
// *inclusive*: a release at the exact start instant still wins the
// arbitration, which is the safe direction for non-preemptive starts.
// Release offsets are ignored (synchronous critical instant — safe).
//
// Source tasks execute in zero time: R = 0.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "graph/task_graph.hpp"
#include "sched/ecu_index.hpp"

namespace ceta {

/// Options of the per-resource response-time analysis.  The scheduling
/// discipline itself lives per ECU on the TaskGraph (SchedPolicy in
/// graph/task.hpp); `policy` here is a global override for callers that
/// want to force one discipline everywhere (ablations, what-if columns).
struct RtaOptions {
  /// Force a single discipline on every ECU; nullopt (the default) means
  /// each ECU is analyzed under its own TaskGraph::policy().
  std::optional<SchedPolicy> policy;
  /// Abort fixpoint iterations beyond this bound (diverging systems).
  int max_iterations = 100'000;
  /// Consider a task schedulable iff R <= deadline, with implicit
  /// deadline = period (the paper's schedulability notion, §II-B).
  bool implicit_deadline = true;
  /// Fault hook (verify only): the preemptive-FP branch drops its
  /// largest-WCET higher-priority competitor — an unsound bound the
  /// rta_policy_matches_sim property must catch.  Affects only
  /// SchedPolicy::kPreemptive tasks.
  bool fault_drop_largest_hp = false;
  /// Fault hook (verify only): the EDF branch undercounts the
  /// deadline-constrained interfering jobs of every competitor by one.
  /// Affects only SchedPolicy::kEdf tasks.
  bool fault_edf_undercount = false;
};

/// Output of analyze_response_times: per-task WCRT upper bounds plus the
/// schedulability verdicts derived from them.
struct RtaResult {
  /// WCRT upper bound per task; Duration::max() if the fixpoint diverged
  /// (over-utilized resource).
  std::vector<Duration> response_time;
  /// R(τ) <= T(τ) per task.
  std::vector<bool> schedulable;
  /// All tasks schedulable.
  bool all_schedulable = false;
};

/// A map from TaskId to a safe WCRT upper bound.  The analyses in
/// chain/ and disparity/ accept any such map, so alternative RTAs can be
/// plugged in.
using ResponseTimeMap = std::vector<Duration>;

/// Run the NP-FP analysis on every resource of the graph.  The graph must
/// pass TaskGraph::validate() except that offsets are ignored here.
/// Builds one EcuIndex, then each task reads only its own cohort:
/// O(V + k log k) for the index of k ECUs, then Σ_e n_e² competitor
/// visits (n_e tasks on ECU e; counted by `sched.rta.competitors`) plus
/// the fixpoints.
RtaResult analyze_response_times(const TaskGraph& g,
                                 const RtaOptions& opt = {});

/// Re-run the analysis for `tasks` only, updating `res` in place.
///
/// The NP-FP fixpoint is strictly per-task: R(τ) depends only on τ's own
/// parameters and its same-ECU competitors, never on other tasks' response
/// times.  Re-analyzing exactly the tasks whose inputs changed (their ECU
/// cohort after a WCET/priority/period edit) therefore reproduces the
/// corresponding entries of a full analyze_response_times() run
/// bit-identically — both call the same per-task routine.  `res` must come
/// from a prior analysis of a graph with the same task count;
/// res.all_schedulable is recomputed from the updated vector.  `index`
/// must be the EcuIndex of a graph with the same ECU placement (the
/// engine keeps one for its lifetime).  O(Σ_{dirty e} n_e² competitor
/// visits + their fixpoints + V) for whole dirty cohorts, instead of a
/// full run.
void reanalyze_response_times(const TaskGraph& g, const RtaOptions& opt,
                              const EcuIndex& index,
                              const std::vector<TaskId>& tasks,
                              RtaResult& res);

/// A competing task on the same resource (higher-priority under the FP
/// analyses; any cohort member under EDF).
struct CompetingTask {
  Duration wcet;    ///< Worst-case execution time of the competitor.
  Duration period;  ///< Release period of the competitor.
  Duration jitter = Duration::zero();  ///< Release jitter of the competitor.
};

/// WCRT of a single task under NP-FP given its blocking term (max WCET of
/// lower-priority same-resource tasks) and higher-priority competitor set,
/// jitter-aware (standard (w + J)/T interference; the result is relative
/// to the *nominal* release and includes the task's own jitter).
/// Returns Duration::max() if the fixpoint diverges (overload).  This is
/// the primitive both analyze_response_times and Audsley's OPA build on.
Duration npfp_response_time(Duration wcet, Duration period, Duration blocking,
                            const std::vector<CompetingTask>& hp,
                            Duration own_jitter = Duration::zero(),
                            int max_iterations = 100'000);

/// WCRT of a single task under fully preemptive fixed priority: classic
/// jitter-aware busy-period analysis, w_q = (q+1)·C + Σ_hp ceil((w_q +
/// J)/T)·C, R = max_q (J + w_q − q·T).  Returns Duration::max() on
/// divergence.
Duration preemptive_response_time(Duration wcet, Duration period,
                                  const std::vector<CompetingTask>& hp,
                                  Duration own_jitter = Duration::zero(),
                                  int max_iterations = 100'000);

/// Utilization Σ W/T of `cohort`, summed in the given order — pass
/// EcuIndex::members(ecu) for the utilization of one ECU.
double resource_utilization(const TaskGraph& g,
                            std::span<const TaskId> cohort);

}  // namespace ceta
