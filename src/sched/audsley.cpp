#include "sched/audsley.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "sched/ecu_index.hpp"

namespace ceta {

namespace {

/// Feasibility of `candidate` at the lowest level of `unassigned`:
/// all other unassigned tasks interfere from above, already-assigned
/// (lower) tasks contribute only blocking.
bool schedulable_at_lowest(const TaskGraph& g, TaskId candidate,
                           const std::vector<TaskId>& unassigned,
                           Duration blocking_below, const RtaOptions& opt) {
  const Task& t = g.task(candidate);
  std::vector<CompetingTask> hp;
  hp.reserve(unassigned.size());
  for (TaskId other : unassigned) {
    if (other == candidate) continue;
    hp.push_back(
        {g.task(other).wcet, g.task(other).period, g.task(other).jitter});
  }
  const Duration r = npfp_response_time(t.wcet, t.period, blocking_below, hp,
                                        t.jitter, opt.max_iterations);
  return r != Duration::max() && (!opt.implicit_deadline || r <= t.period);
}

}  // namespace

AudsleyResult assign_priorities_audsley(TaskGraph& g, const RtaOptions& opt) {
  const EcuIndex index(g);
  AudsleyResult result;
  std::map<TaskId, int> assignment;
  for (const EcuId ecu : index.ecus()) {
    const std::span<const TaskId> tasks = index.members(ecu);
    std::vector<TaskId> unassigned(tasks.begin(), tasks.end());
    // Blocking seen by a level comes from the max WCET strictly below it.
    Duration blocking_below = Duration::zero();
    bool ok = true;
    for (int level = static_cast<int>(tasks.size()) - 1; level >= 0;
         --level) {
      // Prefer the largest-period candidate first: a heuristic that keeps
      // the result close to rate-monotonic where possible (any feasible
      // candidate preserves optimality — that is Audsley's theorem).
      std::vector<TaskId> order = unassigned;
      std::sort(order.begin(), order.end(), [&g](TaskId a, TaskId b) {
        if (g.task(a).period != g.task(b).period) {
          return g.task(a).period > g.task(b).period;
        }
        return a > b;
      });
      bool placed = false;
      for (TaskId candidate : order) {
        if (schedulable_at_lowest(g, candidate, unassigned, blocking_below,
                                  opt)) {
          assignment[candidate] = level;
          unassigned.erase(
              std::find(unassigned.begin(), unassigned.end(), candidate));
          blocking_below = std::max(blocking_below, g.task(candidate).wcet);
          placed = true;
          break;
        }
      }
      if (!placed) {
        ok = false;
        break;
      }
    }
    if (!ok) result.infeasible_ecus.push_back(ecu);
  }

  result.feasible = result.infeasible_ecus.empty();
  if (result.feasible) {
    for (const auto& [task, prio] : assignment) {
      g.task(task).priority = prio;
    }
  }
  return result;
}

}  // namespace ceta
