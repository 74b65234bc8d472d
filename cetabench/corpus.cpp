#include "corpus.hpp"

#include <string>

#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "sched/npfp_rta.hpp"
#include "sched/priority.hpp"
#include "waters/generator.hpp"

namespace cetabench {

using namespace ceta;

bool assign_schedulable(TaskGraph& g, Rng& param, int ecus, int attempts) {
  static constexpr SchedPolicy kPolicies[] = {
      SchedPolicy::kPreemptive, SchedPolicy::kEdf, SchedPolicy::kNonPreemptive,
      SchedPolicy::kNonPreemptive, SchedPolicy::kNonPreemptive};
  for (int a = 0; a < attempts; ++a) {
    // Execution times from the WATERS profile of each task's fixed period.
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      Task& t = g.task(id);
      if (g.is_source(id)) continue;
      WatersTaskParams p = sample_waters_task(param);
      while (p.period != t.period) p = sample_waters_task(param);
      t.bcet = p.bcet;
      t.wcet = p.wcet;
    }
    assign_ecus_random(g, ecus, param);
    assign_priorities_rate_monotonic(g);
    for (EcuId ecu = 0; ecu < static_cast<EcuId>(ecus); ++ecu) {
      g.set_policy(ecu, kPolicies[param.uniform_int(0, 4)]);
    }
    if (analyze_response_times(g).all_schedulable) return true;
  }
  return false;
}

WatersSystem waters_system(Rng& topo, Rng& param, std::size_t tasks,
                           bool funnel, int ecus, std::size_t max_chains) {
  for (;;) {
    WatersSystem s;
    if (funnel) {
      FunnelDagOptions fo;
      fo.num_tasks = tasks;
      s.graph = funnel_random_dag(fo, topo);
    } else {
      GnmDagOptions go;
      go.num_tasks = tasks;
      s.graph = gnm_random_dag(go, topo);
    }
    std::size_t best = 0;
    bool fits = true;
    for (TaskId id = 0; id < s.graph.num_tasks() && fits; ++id) {
      const ChainCount cc = count_source_chains_checked(s.graph, id);
      if (cc.count < 2 && !cc.saturated) continue;
      if (cc.exceeds(max_chains)) fits = false;
      if (cc.count > best) {
        best = cc.count;
        s.sink = id;
      }
    }
    if (!fits || best < 2) continue;
    assign_waters_parameters(s.graph, WatersAssignOptions{ecus}, topo);
    if (assign_schedulable(s.graph, param, ecus, 20)) return s;
  }
}

TaskGraph dagdp_ladder(std::size_t layers) {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  TaskId prev = g.add_task(s);
  EcuId next_ecu = 0;
  auto mk = [&](const std::string& name) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = Duration::ms(10);
    t.ecu = next_ecu++;
    t.priority = 0;
    return g.add_task(t);
  };
  for (std::size_t i = 0; i < layers; ++i) {
    const std::string n = std::to_string(i);
    const TaskId a = mk("a" + n);
    const TaskId b = mk("b" + n);
    const TaskId j = mk("j" + n);
    g.add_edge(prev, a);
    g.add_edge(prev, b);
    g.add_edge(a, j);
    g.add_edge(b, j);
    prev = j;
  }
  g.validate();
  return g;
}

}  // namespace cetabench
