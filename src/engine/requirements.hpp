// The paper's problem statement, §III: "verify whether the time disparity
// of a task is bounded by a pre-defined value".
//
// `verify_disparity_requirements` checks a set of (task, threshold)
// requirements against the S-diff analysis and, for violated ones,
// attempts the §IV remedy: a buffer design (AnalysisEngine::
// optimize_buffers, the multi-chain generalization of Algorithm 1) that
// shrinks the bound below the threshold.  Designs for different tasks may
// buffer the same channel; remedies are computed and applied cumulatively
// in requirement order, re-verifying earlier requirements at the end (a
// buffer added for one task shifts data seen by every consumer downstream
// of that channel).
//
// All analyses run on one AnalysisEngine over the adopted WCRT map, and
// each remedy is committed as one Transaction, so a re-verification only
// recomputes the reports the added buffers dirtied.

#pragma once

#include <vector>

#include "disparity/analyzer.hpp"
#include "disparity/buffer_opt.hpp"
#include "graph/task_graph.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta {

/// One (task, threshold) requirement to verify.
struct DisparityRequirement {
  TaskId task = 0;  ///< the task whose disparity is constrained
  /// Required upper bound on the task's worst-case time disparity.
  Duration max_disparity;
};

/// Verdict for one requirement after verification (and remediation).
enum class RequirementStatus {
  kSatisfied,          ///< bound <= threshold on the input graph
  kFixedByBuffers,     ///< violated, but the buffer remedy closes the gap
  kViolated,           ///< violated and the remedy does not close the gap
};

/// Per-requirement verification result.
struct RequirementOutcome {
  DisparityRequirement requirement;                       ///< as given
  RequirementStatus status = RequirementStatus::kSatisfied;  ///< verdict
  /// S-diff bound on the input graph.
  Duration bound;
  /// S-diff bound on the remedied graph (== bound when untouched).
  Duration final_bound;
  /// Channels buffered for this requirement (empty unless kFixedByBuffers
  /// was attempted and helped).
  std::vector<ChannelBuffer> buffers;
};

/// Result of verify_disparity_requirements.
struct RequirementsReport {
  std::vector<RequirementOutcome> outcomes;  ///< one per requirement, in order
  /// All requirements hold on the final (possibly buffered) graph.
  bool all_satisfied = false;
  /// The graph with every applied remedy (equals the input when none).
  TaskGraph final_graph;
};

/// @brief Verify all requirements; attempt buffer remedies for violated
/// ones.
/// @param g     The analyzed graph (validated; FIFO sizes change no WCRT,
///   so `rtm` stays valid for every remedied graph).
/// @param reqs  Requirements, remedied in this order.
/// @param rtm   Safe WCRT upper bound per task.
/// @param opt   Analyzer options for every bound (AnalysisEngine::
///   disparity routing: sinks above opt.path_cap are bounded by the DAG
///   DP, and remedying them throws CapacityError).
RequirementsReport verify_disparity_requirements(
    const TaskGraph& g, const std::vector<DisparityRequirement>& reqs,
    const ResponseTimeMap& rtm, const DisparityOptions& opt = {});

}  // namespace ceta
