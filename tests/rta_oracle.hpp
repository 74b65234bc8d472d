// Reference response-time analysis for differential tests.
//
// A deliberately plain copy of the per-task RTA loop as it was before
// the ECU cohort index: every task scans all N tasks for its same-ECU
// competitors and again for its ECU's utilization, O(N²) per run.  It
// shares only the per-task fixpoint primitives (npfp_response_time,
// preemptive_response_time, edf_response_time) with the library, so a
// test comparing it with analyze_response_times checks the grouping,
// ordering and routing of the indexed RTA, entry by entry.

#pragma once

#include "graph/task_graph.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta::testing {

/// analyze_response_times by full scans, honouring every RtaOptions field
/// (policy override, implicit deadlines, both fault hooks).
RtaResult rta_by_full_scan(const TaskGraph& g, const RtaOptions& opt = {});

}  // namespace ceta::testing
