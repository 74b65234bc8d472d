#include "helpers.hpp"

#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "waters/generator.hpp"

namespace ceta::testing {

TaskGraph simple_chain_graph() {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);

  Task a;
  a.name = "A";
  a.wcet = a.bcet = Duration::ms(1);
  a.period = Duration::ms(10);
  a.ecu = 0;
  a.priority = 0;
  const TaskId aid = g.add_task(a);

  Task b;
  b.name = "B";
  b.wcet = b.bcet = Duration::ms(1);
  b.period = Duration::ms(20);
  b.ecu = 0;
  b.priority = 1;
  const TaskId bid = g.add_task(b);

  g.add_edge(sid, aid);
  g.add_edge(aid, bid);
  g.validate();
  return g;
}

TaskGraph diamond_graph() {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);

  auto mk = [](const char* name, Duration period, EcuId ecu, int prio) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = period;
    t.ecu = ecu;
    t.priority = prio;
    return t;
  };
  const TaskId aid = g.add_task(mk("A", Duration::ms(10), 0, 0));
  const TaskId cid = g.add_task(mk("C", Duration::ms(20), 0, 1));
  const TaskId did = g.add_task(mk("D", Duration::ms(20), 1, 0));
  const TaskId eid = g.add_task(mk("E", Duration::ms(20), 1, 1));

  g.add_edge(sid, aid);
  g.add_edge(aid, cid);
  g.add_edge(aid, did);
  g.add_edge(cid, eid);
  g.add_edge(did, eid);
  g.validate();
  return g;
}

TaskGraph diamond_ladder(std::size_t layers) {
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
    return t;
  };
  for (std::size_t i = 0; i < layers; ++i) {
    const TaskId a = g.add_task(mk("a" + std::to_string(i)));
    const TaskId b = g.add_task(mk("b" + std::to_string(i)));
    const TaskId j = g.add_task(mk("j" + std::to_string(i)));
    g.add_edge(prev, a);
    g.add_edge(prev, b);
    g.add_edge(a, j);
    g.add_edge(b, j);
    prev = j;
  }
  g.validate();
  return g;
}

TaskGraph random_two_chain_graph(std::size_t length, int num_ecus,
                                 std::uint64_t seed) {
  Rng rng(seed);
  for (int attempt = 0; attempt < 128; ++attempt) {
    TaskGraph g = merge_chains_at_sink(length, length);
    WatersAssignOptions opt;
    opt.num_ecus = num_ecus;
    assign_waters_parameters(g, opt, rng);
    if (analyze_response_times(g).all_schedulable) return g;
  }
  throw Error("random_two_chain_graph: no schedulable draw");
}

TaskGraph random_dag_graph(std::size_t num_tasks, int num_ecus,
                           std::uint64_t seed) {
  Rng rng(seed);
  for (int attempt = 0; attempt < 128; ++attempt) {
    GnmDagOptions gopt;
    gopt.num_tasks = num_tasks;
    TaskGraph g = gnm_random_dag(gopt, rng);
    WatersAssignOptions opt;
    opt.num_ecus = num_ecus;
    assign_waters_parameters(g, opt, rng);
    const TaskId sink = g.sinks().front();
    if (count_source_chains(g, sink) < 2) continue;
    if (count_source_chains(g, sink) > 2000) continue;
    if (analyze_response_times(g).all_schedulable) return g;
  }
  throw Error("random_dag_graph: no admissible draw");
}

ResponseTimeMap response_times_of(const TaskGraph& g) {
  const RtaResult rta = analyze_response_times(g);
  CETA_EXPECTS(rta.all_schedulable,
               "response_times_of: fixture must be schedulable");
  return rta.response_time;
}

}  // namespace ceta::testing
