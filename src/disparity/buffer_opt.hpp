// §IV — cutting down the worst-case time disparity by buffer design
// (Lemma 6, Algorithm 1, Theorem 3).
//
// The pairwise disparity is governed by the relative offset of the two
// sources' sampling windows.  Giving the input channel of the second task
// of the "younger" chain (the one whose window sits further right) a FIFO
// buffer of size n shifts that window left by (n−1)·T(head) (Lemma 6).
// Algorithm 1 picks n so the two window *midpoints* align as closely as a
// multiple of the head's period allows; Theorem 3 lowers the Theorem 2
// bound by exactly the shift L.
//
// A fusion task with k > 2 chains has k windows; the multi-chain design
// (AnalysisEngine::optimize_buffers) groups the chains by head channel and
// shifts every group's window onto the stalest one, producing the
// MultiBufferDesign below.  Its optimized bound is a re-analysis of the
// buffered graph, so it is safe by construction.  A buffered channel
// delays data for *every* consumer downstream, so the design may change
// the data age and disparity observed elsewhere.

#pragma once

#include <vector>

#include "disparity/forkjoin.hpp"
#include "graph/paths.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta {

/// Output of Algorithm 1 for one chain pair.
struct BufferDesign {
  /// True if the buffer goes on λ's head channel, false if on ν's.
  bool buffer_on_lambda = true;
  /// The buffered channel (head → second task of the chosen chain).
  TaskId from = 0;
  TaskId to = 0;  ///< consumer end of the buffered channel
  /// Designed FIFO size (>= 1; 1 means no change was useful).
  int buffer_size = 1;
  /// Window shift L achieved by the design (multiple of T(head)).
  Duration shift;
  /// Theorem 2 bound without buffering, for reference.
  Duration baseline_bound;
  /// Theorem 3 bound with the designed buffer: baseline − L.
  Duration optimized_bound;
  /// Sampling windows before buffering (anchored at λ's o_1 job release).
  Interval window_lambda;
  Interval window_nu;  ///< ν's pre-buffering window, same anchor
};

/// @brief Run Algorithm 1 on two non-identical chains of g ending at the
/// same task.
/// @param g       The analyzed graph.
/// @param lambda,nu  The chain pair (both must end at the same task).
/// @param rtm     Safe WCRT upper bound per task.
/// @param method  Hop-bound method for the Theorem 2 windows.
/// @return The designed FIFO size and the Theorem 3 bound.  A chain must
///   have at least two tasks to host a buffer; if the chain that would be
///   buffered is a single task, the design is trivial (size 1, L = 0).
/// Complexity: one Theorem 2 evaluation, O(c · max chain length).
BufferDesign design_buffer(const TaskGraph& g, const Path& lambda,
                           const Path& nu, const ResponseTimeMap& rtm,
                           HopBoundMethod method =
                               HopBoundMethod::kNonPreemptive);

/// @brief Apply a design to a graph (sets the channel's FIFO size).
/// @param design  As returned by design_buffer; sizes <= 1 are no-ops.
/// Complexity: O(E) edge lookup.
void apply_buffer_design(TaskGraph& g, const BufferDesign& design);

/// One buffered channel of a multi-chain design.
struct ChannelBuffer {
  TaskId from = 0;        ///< producer end of the channel
  TaskId to = 0;          ///< consumer end of the channel
  int buffer_size = 1;    ///< FIFO depth to install (Lemma 6)
  /// Window shift of the chains through this channel: (size−1)·T(from).
  Duration shift;
};

/// A complete buffer assignment for one fusion task, as produced by
/// AnalysisEngine::optimize_buffers.
struct MultiBufferDesign {
  /// Channels to buffer (sizes > 1 only; empty = nothing to gain).
  std::vector<ChannelBuffer> channels;
  /// Worst-case disparity bound of the task before / after buffering
  /// (both via the task-level analyzer with the given options).
  Duration baseline_bound;   ///< bound on the unbuffered graph
  Duration optimized_bound;  ///< bound after applying `channels`
};

/// @brief Apply a multi-chain design to a graph (sets every channel's FIFO
/// size).
void apply_multi_buffer_design(TaskGraph& g, const MultiBufferDesign& design);

}  // namespace ceta
