// Seeded input generators shared by the workloads.  They call only the
// library's public generators (graph/, waters/) and analyses; a workload's
// ops see nothing but the graphs (or their text) made here.
//
// Each corpus item has a fixed size, topology and task periods, drawn from a
// stream that does not depend on --seed; the seed draws everything else
// (execution times, ECU mapping, scheduling policies, edits, search moves,
// simulation seeds).  The work an op does is then comparable from one seed to
// the next, so the run-to-run spread of the figures is the host's and the
// program's, not the luck of the draw of graph shapes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "graph/task_graph.hpp"

namespace cetabench {

/// Independent stream for one corpus item.
inline ceta::Rng item_rng(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t item) {
  return ceta::Rng(seed * 0x9e3779b97f4a7c15ull ^ (salt << 32) ^ item);
}

/// Stream for the fixed topology of one corpus item.
inline ceta::Rng topology_rng(std::uint64_t salt, std::uint64_t item) {
  return item_rng(0, salt, item);
}

struct WatersSystem {
  ceta::TaskGraph graph;
  ceta::TaskId sink = 0;  ///< the fusing task with the most source chains
};

/// A schedulable WATERS system of `tasks` tasks on `ecus` ECUs with a G(n,m)
/// or funnel topology and WATERS periods from `topo`, whose fusing tasks
/// have at most `max_chains` source chains each (and at least one task
/// fuses).  `param` draws the rest (see assign_schedulable).
WatersSystem waters_system(ceta::Rng& topo, ceta::Rng& param,
                           std::size_t tasks, bool funnel, int ecus,
                           std::size_t max_chains);

/// Keeping `g`'s periods, draw WATERS execution times for them, a random
/// mapping onto `ecus` ECUs (rate-monotonic priorities) and the ECUs'
/// policies — about one in five preemptive FP, one in five EDF, the rest
/// non-preemptive FP — until `g` is schedulable; false if `attempts` draws
/// all failed.
bool assign_schedulable(ceta::TaskGraph& g, ceta::Rng& param, int ecus,
                        int attempts);

/// `layers` serial diamonds, every task alone on its own ECU:
/// 1 + 3·layers tasks and 2^layers source chains through the sink (the
/// `BM_DagDp` ladder of bench/perf_analysis.cpp).
ceta::TaskGraph dagdp_ladder(std::size_t layers);

/// Tasks in a ladder of `layers` diamonds.
inline std::size_t ladder_tasks(std::size_t layers) { return 1 + 3 * layers; }

}  // namespace cetabench
