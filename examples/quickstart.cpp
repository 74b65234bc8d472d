// Quickstart: build a small cause-effect graph, bound the worst-case time
// disparity of its fusion task, and validate the bound by simulation.
//
//        ┌─> filter ──┐
//  cam ─>┤            ├─> fuse
//        └─> detect ──┘
//
// Build & run:  ./examples/quickstart

#include <iostream>

#include "engine/analysis_engine.hpp"
#include "graph/dot.hpp"
#include "graph/task_graph.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace ceta;

  // 1. Describe the application graph: (WCET, BCET, period) per task,
  //    static ECU mapping, fixed priorities (smaller value = higher).
  TaskGraph g;
  Task cam;
  cam.name = "camera";
  cam.period = Duration::ms(10);  // sources have zero execution time
  const TaskId camera = g.add_task(cam);

  auto make = [](const char* name, Duration wcet, Duration bcet,
                 Duration period, EcuId ecu, int prio) {
    Task t;
    t.name = name;
    t.wcet = wcet;
    t.bcet = bcet;
    t.period = period;
    t.ecu = ecu;
    t.priority = prio;
    return t;
  };
  const TaskId filter = g.add_task(
      make("filter", Duration::ms(2), Duration::ms(1), Duration::ms(20), 0, 0));
  const TaskId detect = g.add_task(
      make("detect", Duration::ms(4), Duration::ms(2), Duration::ms(40), 0, 1));
  const TaskId fuse = g.add_task(
      make("fuse", Duration::ms(1), Duration::ms(1), Duration::ms(20), 1, 0));

  g.add_edge(camera, filter);
  g.add_edge(camera, detect);
  g.add_edge(filter, fuse);
  g.add_edge(detect, fuse);
  g.validate();

  std::cout << "Graph (DOT):\n" << to_dot(g) << '\n';

  // 2. Hand the graph to an analysis engine: it owns a copy and computes
  //    (then memoizes) response times, chain sets and all bounds on demand.
  const AnalysisEngine engine(g);
  const RtaResult& rta = engine.rta();
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    std::cout << "R(" << g.task(id).name
              << ") = " << to_string(rta.response_time[id])
              << (rta.schedulable[id] ? "" : "  ** deadline miss **") << '\n';
  }

  // 3. Bound the worst-case time disparity of the fusion task with both
  //    analyses of the paper (they share the engine's cached chain bounds).
  DisparityOptions opt;
  opt.method = DisparityMethod::kIndependent;
  const Duration pdiff = engine.disparity(fuse, opt).worst_case;
  const DisparityReport sdiff = engine.disparity(fuse);

  std::cout << "\nWorst-case time disparity of 'fuse':\n"
            << "  P-diff (Theorem 1, independent chains): "
            << to_string(pdiff) << '\n'
            << "  S-diff (Theorem 2, fork-join aware):    "
            << to_string(sdiff.worst_case) << '\n'
            << "  chains fused: " << sdiff.chains.size() << '\n';

  // 4. Validate against a 10-second simulation (an unsafe lower bound).
  SimOptions sopt;
  sopt.duration = Duration::s(10);
  sopt.exec_model = ExecTimeModel::kUniform;
  const SimResult sim = Simulator(g, sopt).run();
  std::cout << "  Sim (10 s, uniform execution):          "
            << to_string(sim.max_disparity[fuse]) << "  ("
            << sim.jobs_observed[fuse] << " jobs observed)\n";

  const bool safe = sim.max_disparity[fuse] <= sdiff.worst_case &&
                    sdiff.worst_case <= pdiff;
  std::cout << "\nSafety check (Sim <= S-diff <= P-diff): "
            << (safe ? "OK" : "VIOLATED") << '\n';
  return safe ? 0 : 1;
}
