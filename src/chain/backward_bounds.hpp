// Backward-time bounds of a cause-effect chain (§III, Lemmas 4–6).
//
// The backward time of the immediate backward job chain ending at a job of
// the tail task is len(π̄) = r(π̄^{|π|}) − r(π̄^1): how far into the past the
// source sample that the output originates from was taken.  The disparity
// analysis needs an upper bound W(π) on the worst case and a lower bound
// B(π) on the best case.
//
// Two hop-bound methods are provided:
//  * NonPreemptive (Lemma 4) — exploits non-preemptive fixed-priority
//    scheduling for consecutive tasks on the same ECU;
//  * SchedulingAgnostic — the safe-under-any-scheduler per-hop bound
//    θ = T + R in the style of Dürr et al. [5], used as the baseline the
//    paper compares against.
//
// Lemma 6 extends both bounds to chains whose second task reads through a
// FIFO buffer of size n on its input channel: in the long term (buffer
// full) both bounds shift right by (n−1)·T(π^1).

#pragma once

#include "graph/paths.hpp"
#include "graph/task_graph.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta {

enum class HopBoundMethod {
  /// Lemma 4 — tighter, valid under non-preemptive fixed priority.
  kNonPreemptive,
  /// θ_i = T(π^i) + R(π^i) for every hop — valid under any scheduler
  /// (baseline of Dürr et al. [5]).
  kSchedulingAgnostic,
};

/// Bounds on the backward time of one chain: bcbt <= len(π̄) <= wcbt for
/// every immediate backward job chain π̄.  bcbt may be negative (Lemma 5
/// remark: the source job may be released after the output job).
struct BackwardBounds {
  Duration wcbt;
  Duration bcbt;
};

/// θ_i of Lemma 4 (or the scheduling-agnostic variant) for the hop from
/// `from` to its direct successor `to`.  `rtm` maps TaskId to a safe WCRT
/// upper bound.  Requires the edge (from, to) to exist in g.
Duration hop_bound(const TaskGraph& g, TaskId from, TaskId to,
                   const ResponseTimeMap& rtm, HopBoundMethod method);

/// Upper bound W(π) on the worst-case backward time (Lemma 4):
/// Σ_{i=1}^{|π|−1} θ_i.  `chain` must be a path of g with >= 1 task.
Duration wcbt_bound(const TaskGraph& g, const Path& chain,
                    const ResponseTimeMap& rtm,
                    HopBoundMethod method = HopBoundMethod::kNonPreemptive);

/// Lower bound B(π) on the best-case backward time (Lemma 5):
/// Σ_{i=1}^{|π|} B(π^i) − R(π^{|π|}).
Duration bcbt_bound(const TaskGraph& g, const Path& chain,
                    const ResponseTimeMap& rtm);

/// Both bounds at once.
BackwardBounds backward_bounds(
    const TaskGraph& g, const Path& chain, const ResponseTimeMap& rtm,
    HopBoundMethod method = HopBoundMethod::kNonPreemptive);

/// Extra backward shift contributed by FIFO channels along the chain
/// (Lemma 6 applied hop-wise): upper / lower window edge.  Zero for a
/// chain of unbuffered (size-1) channels.
Duration fifo_shift_upper(const TaskGraph& g, const Path& chain);
Duration fifo_shift_lower(const TaskGraph& g, const Path& chain);

/// Lemma 6: bounds of the chain whose π^1→π^2 channel is a FIFO of size n
/// (long-term behavior, buffer full): both bounds shift by (n−1)·T(π^1).
/// With n = 1 this is exactly `backward_bounds`.  Requires |chain| >= 2
/// for n > 1.
BackwardBounds buffered_backward_bounds(
    const TaskGraph& g, const Path& chain, const ResponseTimeMap& rtm,
    int buffer_size,
    HopBoundMethod method = HopBoundMethod::kNonPreemptive);

}  // namespace ceta
