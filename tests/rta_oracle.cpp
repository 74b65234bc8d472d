#include "rta_oracle.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sched/edf_rta.hpp"

namespace ceta::testing {

namespace {

double utilization_by_scan(const TaskGraph& g, EcuId ecu) {
  double u = 0.0;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const Task& t = g.task(id);
    if (t.ecu == ecu && t.ecu != kNoEcu) u += t.wcet.ratio(t.period);
  }
  return u;
}

void analyze_task_by_scan(const TaskGraph& g, const RtaOptions& opt,
                          TaskId id, RtaResult& res) {
  const Task& t = g.task(id);
  res.schedulable[id] = true;
  if (t.ecu == kNoEcu) {
    res.response_time[id] = t.jitter;
    return;
  }
  std::vector<CompetingTask> hp;
  std::vector<CompetingTask> cohort;
  Duration blocking = Duration::zero();
  for (TaskId other = 0; other < g.num_tasks(); ++other) {
    if (other == id) continue;
    const Task& o = g.task(other);
    if (o.ecu != t.ecu) continue;
    CETA_EXPECTS(o.priority != t.priority,
                 "analyze_response_times: duplicate priority on ECU " +
                     std::to_string(t.ecu));
    cohort.push_back({o.wcet, o.period, o.jitter});
    if (higher_priority(o, t)) {
      hp.push_back({o.wcet, o.period, o.jitter});
    } else {
      blocking = std::max(blocking, o.wcet);
    }
  }
  if (utilization_by_scan(g, t.ecu) >= 1.0) {
    res.response_time[id] = Duration::max();
    res.schedulable[id] = false;
    return;
  }
  Duration worst = Duration::zero();
  switch (opt.policy.value_or(g.policy(t.ecu))) {
    case SchedPolicy::kNonPreemptive:
      worst = npfp_response_time(t.wcet, t.period, blocking, hp, t.jitter,
                                 opt.max_iterations);
      break;
    case SchedPolicy::kPreemptive:
      if (opt.fault_drop_largest_hp && !hp.empty()) {
        hp.erase(std::max_element(
            hp.begin(), hp.end(),
            [](const CompetingTask& a, const CompetingTask& b) {
              return a.wcet < b.wcet;
            }));
      }
      worst = preemptive_response_time(t.wcet, t.period, hp, t.jitter,
                                       opt.max_iterations);
      break;
    case SchedPolicy::kEdf:
      worst = edf_response_time(t.wcet, t.period, cohort, t.jitter,
                                opt.max_iterations, opt.fault_edf_undercount);
      break;
  }
  res.response_time[id] = worst;
  if (worst == Duration::max() ||
      (opt.implicit_deadline && worst > t.period)) {
    res.schedulable[id] = false;
  }
}

}  // namespace

RtaResult rta_by_full_scan(const TaskGraph& g, const RtaOptions& opt) {
  RtaResult res;
  res.response_time.assign(g.num_tasks(), Duration::zero());
  res.schedulable.assign(g.num_tasks(), true);
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    analyze_task_by_scan(g, opt, id, res);
  }
  res.all_schedulable = std::all_of(res.schedulable.begin(),
                                    res.schedulable.end(),
                                    [](bool b) { return b; });
  return res;
}

}  // namespace ceta::testing
