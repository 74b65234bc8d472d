// Invalidation planning for the incremental engine.
//
// AnalysisEngine's caches memoize three artifact kinds — RTA entries,
// enumerated chain sets and disparity reports.  Per-chain W/B bounds are
// not cached (they cost O(|π|) to recompute), so they need no plan.
// When the graph is edited through the mutation API the engine must drop
// exactly the entries whose *inputs* changed and keep everything else;
// DESIGN.md §9 is the normative mutation × cache contract.  This header
// holds the pieces that compute the "what is affected" half of that
// contract as plain data, with no locking and no knowledge of the cache
// containers:
//
//  * Mutation — one primitive edit, the unit a Transaction batches.
//  * InvalidationPlan / plan_invalidation — maps a committed edit batch to
//    the dirty sets per cache layer, O(affected) in the sense that each
//    listed element is genuinely reachable from an edited task/edge
//    (cohorts + closure walks), never "the whole graph" by default.
//
// The engine turns a plan into epoch bumps (see analysis_engine.hpp): every
// cache entry is stamped with the commit epoch it was computed under, and
// per-task epochs record the last commit that dirtied the task's chain set
// or report; a lookup treats an entry as stale iff its stamp is older than
// that epoch.  The RTA instead drains rta_tasks in a scoped refresh.  That
// keeps commits O(affected) — no cache scans.
//
// The static dependency structure is the EcuIndex (sched/ecu_index.hpp):
// the only non-local dependency of the per-task RTA fixpoint is the
// same-ECU competitor set, so editing the WCET/period/priority of τ
// dirties exactly τ's cohort.  Tasks are never re-mapped by the mutation
// API (and add_edge cannot turn a task into a source, see
// AnalysisEngine::add_edge), so the engine builds the index once.

#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "graph/task_graph.hpp"
#include "sched/ecu_index.hpp"

namespace ceta::engine {

/// The kind of one primitive graph edit (the rows of the DESIGN.md §9
/// invalidation matrix).
enum class MutationKind {
  kPeriod,
  kWcetRange,
  kPriority,
  kBuffer,
  kOffset,
  kAddEdge,
  kRemoveEdge,
  kPolicy,
};

/// One primitive edit, as staged by AnalysisEngine::Transaction.  Only the
/// fields relevant to `kind` are meaningful.
struct Mutation {
  MutationKind kind = MutationKind::kPeriod;
  /// Target of a task-parameter edit (kPeriod/kWcetRange/kPriority/kOffset).
  TaskId task = 0;
  /// Endpoints of an edge edit (kBuffer/kAddEdge/kRemoveEdge).
  TaskId from = 0;
  TaskId to = 0;
  Duration period = Duration::zero();
  Duration bcet = Duration::zero();
  Duration wcet = Duration::zero();
  Duration offset = Duration::zero();
  int priority = 0;
  /// New FIFO depth (kBuffer) or the spec of an added edge (kAddEdge).
  ChannelSpec channel;
  /// Target ECU and new dispatching discipline (kPolicy).  A policy edit
  /// dirties exactly the ECU's cohort, like a priority edit.
  EcuId ecu = kNoEcu;
  SchedPolicy policy = SchedPolicy::kNonPreemptive;
};

/// Dirty sets of one committed edit batch, per cache layer.  Each vector is
/// deduplicated and sorted.
struct InvalidationPlan {
  /// Tasks whose RTA entry must be recomputed (scoped refresh).
  std::vector<TaskId> rta_tasks;
  /// Tasks whose enumerated source→task chain set changed.
  std::vector<TaskId> chain_set_tasks;
  /// Tasks whose disparity report may have changed: everything downstream
  /// of an edited cohort, resized channel or added/removed edge.
  std::vector<TaskId> report_tasks;
};

/// Map a committed batch of edits to its per-layer dirty sets, following
/// the DESIGN.md §9 matrix.  `post` is the graph *after* the batch was
/// applied; `removed_closures` holds, for the i-th kRemoveEdge mutation in
/// `edits` (in order), the descendant closure of its head computed on the
/// *pre-commit* graph — removal destroys reachability, so the affected
/// tasks are only visible in the pre-state.  Cost: one multi-source
/// forward walk per edit class, O(V + E) worst case but proportional to
/// the reachable region in practice — never a cache scan.
InvalidationPlan plan_invalidation(
    const TaskGraph& post, const EcuIndex& ecus,
    const std::vector<Mutation>& edits,
    const std::vector<std::vector<TaskId>>& removed_closures);

}  // namespace ceta::engine
