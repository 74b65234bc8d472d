#include "sched/priority.hpp"

#include <algorithm>
#include <vector>

#include "sched/ecu_index.hpp"

namespace ceta {

namespace {

/// Assign 0..k-1 per ECU following the order induced by `less`.
template <typename Less>
void assign_per_ecu(TaskGraph& g, Less less) {
  const EcuIndex index(g);
  for (const EcuId ecu : index.ecus()) {
    const std::span<const TaskId> members = index.members(ecu);
    std::vector<TaskId> ids(members.begin(), members.end());
    std::sort(ids.begin(), ids.end(), less);
    int prio = 0;
    for (TaskId id : ids) g.task(id).priority = prio++;
  }
}

}  // namespace

void assign_priorities_rate_monotonic(TaskGraph& g) {
  assign_per_ecu(g, [&g](TaskId a, TaskId b) {
    const Duration ta = g.task(a).period;
    const Duration tb = g.task(b).period;
    if (ta != tb) return ta < tb;
    return a < b;
  });
}

void assign_priorities_by_index(TaskGraph& g) {
  assign_per_ecu(g, [](TaskId a, TaskId b) { return a < b; });
}

void assign_ecus_random(TaskGraph& g, int num_ecus, Rng& rng) {
  CETA_EXPECTS(num_ecus >= 1, "assign_ecus_random: need at least one ECU");
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    if (g.is_source(id)) {
      g.task(id).ecu = kNoEcu;
    } else {
      g.task(id).ecu = static_cast<EcuId>(rng.uniform_int(0, num_ecus - 1));
    }
  }
}

void assign_ecus_single(TaskGraph& g) {
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    g.task(id).ecu = g.is_source(id) ? kNoEcu : 0;
  }
}

void randomize_offsets(TaskGraph& g, Rng& rng) {
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    Task& t = g.task(id);
    t.offset = rng.uniform_duration(Duration::zero(),
                                    t.period - Duration::ns(1));
  }
}

}  // namespace ceta
