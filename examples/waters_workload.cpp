// Generate a WATERS 2015 automotive workload on a random single-sink
// cause-effect graph (the evaluation setup of §V), print the task set,
// and analyze the sink's worst-case time disparity.
//
// Usage: waters_workload [num_tasks] [num_ecus] [seed]

#include <cstdlib>
#include <iostream>

#include "engine/analysis_engine.hpp"
#include "experiments/table.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

int main(int argc, char** argv) {
  using namespace ceta;

  const std::size_t num_tasks =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 15;
  const int num_ecus = argc > 2 ? std::atoi(argv[2]) : 3;
  const std::uint64_t seed =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 42;

  Rng rng(seed);
  TaskGraph g;
  TaskId sink = 0;
  // Resample until the sink actually fuses several sensors.
  for (int attempt = 0;; ++attempt) {
    GnmDagOptions gopt;
    gopt.num_tasks = num_tasks;
    g = gnm_random_dag(gopt, rng);
    WatersAssignOptions wopt;
    wopt.num_ecus = num_ecus;
    assign_waters_parameters(g, wopt, rng);
    sink = g.sinks().front();
    if (count_source_chains(g, sink) >= 2 &&
        count_source_chains(g, sink) <= 2000) {
      break;
    }
    if (attempt > 100) {
      std::cerr << "could not draw an admissible graph\n";
      return 1;
    }
  }

  ConsoleTable table({"task", "T", "WCET", "BCET", "ECU", "prio"});
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const Task& t = g.task(id);
    table.add_row({t.name, to_string(t.period), to_string(t.wcet),
                   to_string(t.bcet),
                   t.ecu == kNoEcu ? "-" : std::to_string(t.ecu),
                   t.ecu == kNoEcu ? "-" : std::to_string(t.priority)});
  }
  std::cout << "WATERS task set (seed " << seed << ", " << g.num_edges()
            << " edges):\n";
  table.print(std::cout);

  const AnalysisEngine engine(g);
  if (!engine.schedulable()) {
    std::cerr << "unschedulable draw (unexpected for WATERS utilizations)\n";
    return 1;
  }
  const EcuIndex ecus(g);
  for (const EcuId ecu : ecus.ecus()) {
    std::cout << "ECU " << ecu << " utilization: "
              << fmt_percent(resource_utilization(g, ecus.members(ecu)), 3)
              << '\n';
  }

  DisparityOptions opt;
  opt.method = DisparityMethod::kIndependent;
  const Duration pdiff = engine.disparity(sink, opt).worst_case;
  const DisparityReport rep = engine.disparity(sink);
  std::cout << "\nSink '" << g.task(sink).name << "' fuses "
            << rep.chains.size() << " chains\n"
            << "  P-diff: " << to_string(pdiff) << '\n'
            << "  S-diff: " << to_string(rep.worst_case) << '\n';

  SimOptions sopt;
  sopt.duration = Duration::s(5);
  sopt.seed = seed;
  const SimResult sim = Simulator(g, sopt).run();
  std::cout << "  Sim(5s): " << to_string(sim.max_disparity[sink]) << '\n';

  return sim.max_disparity[sink] <= rep.worst_case ? 0 : 1;
}
