// The §IV story end to end: why raising a task's sampling frequency does
// NOT cut the worst-case time disparity (the paper's Fig. 4 observation),
// and how Algorithm 1's buffer design does.
//
// Topology (two sensor chains fused at F):
//   S1 (10ms) -> P (30ms or 10ms) -> F (30ms)
//   S2 (100ms) -> Q (100ms) ------/

#include <iostream>

#include "disparity/buffer_opt.hpp"
#include "disparity/forkjoin.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/paths.hpp"
#include "graph/task_graph.hpp"
#include "sim/simulator.hpp"

namespace {

ceta::TaskGraph build(ceta::Duration p_period) {
  using namespace ceta;
  TaskGraph g;
  Task s1;
  s1.name = "S1";
  s1.period = Duration::ms(10);
  const TaskId s1id = g.add_task(s1);
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ms(100);
  const TaskId s2id = g.add_task(s2);
  auto mk = [](const char* name, Duration period, EcuId ecu) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = period;
    t.ecu = ecu;
    t.priority = 0;
    return t;
  };
  const TaskId p = g.add_task(mk("P", p_period, 0));
  const TaskId q = g.add_task(mk("Q", Duration::ms(100), 1));
  const TaskId f = g.add_task(mk("F", Duration::ms(30), 2));
  g.add_edge(s1id, p);
  g.add_edge(s2id, q);
  g.add_edge(p, f);
  g.add_edge(q, f);
  g.validate();
  return g;
}

void report(const char* label, const ceta::TaskGraph& g) {
  using namespace ceta;
  const AnalysisEngine engine(g);
  const auto& chains = engine.chains(4);
  const ForkJoinBound fj =
      sdiff_pair_bound(g, chains[0], chains[1], engine.response_times());
  std::cout << label << "\n  sampling window via " << g.task(chains[0][1]).name
            << "-chain: " << to_string(fj.window_lambda)
            << "\n  sampling window via " << g.task(chains[1][1]).name
            << "-chain: " << to_string(fj.window_nu)
            << "\n  S-diff bound: " << to_string(fj.bound) << '\n';

  const BufferDesign d = engine.optimize_buffer_pair(chains[0], chains[1]);
  std::cout << "  Algorithm 1: buffer of size " << d.buffer_size
            << " on channel " << g.task(d.from).name << " -> "
            << g.task(d.to).name << " (window shift L = "
            << to_string(d.shift) << ")\n"
            << "  S-diff-B bound (Theorem 3): "
            << to_string(d.optimized_bound) << '\n';

  // Measure both configurations.
  TaskGraph buffered = g;
  apply_buffer_design(buffered, d);
  SimOptions sopt;
  sopt.duration = Duration::s(30);
  sopt.warmup = Duration::s(5);
  const SimResult base = Simulator(g, sopt).run();
  const SimResult opt = Simulator(buffered, sopt).run();
  std::cout << "  measured disparity:  base " << to_string(base.max_disparity[4])
            << "  buffered " << to_string(opt.max_disparity[4]) << "\n\n";
}

}  // namespace

int main() {
  using namespace ceta;
  std::cout << "=== P samples at 30ms ===\n";
  report("baseline", build(Duration::ms(30)));

  std::cout << "=== P samples at 10ms (3x faster) ===\n";
  std::cout << "Raising P's frequency wastes computation (2 of 3 outputs\n"
               "are never consumed by F) yet barely moves the worst case,\n"
               "because the disparity is governed by the WCBT of one chain\n"
               "vs the BCBT of the other (Fig. 4 of the paper):\n\n";
  report("3x sampling", build(Duration::ms(10)));

  std::cout << "The buffer design, in contrast, shifts the fresher chain's\n"
               "sampling window onto the staler one and cuts the worst case\n"
               "in both variants.\n";
  return 0;
}
