// An autonomous-driving pipeline in the style of the paper's Fig. 1
// (sensing → perception → planning → control), distributed over three
// ECUs with CAN-bus communication between them.
//
//   camera (33ms) ─> img_proc ─> detect ──┐
//   lidar  (100ms) ─> cloud ─> segment ───┼─> fusion ─> plan ─> control
//   radar  (50ms) ─> radar_proc ──────────┘
//
// The example inserts CAN message tasks for every inter-ECU edge, bounds
// the time disparity at the fusion and control tasks, and checks both
// bounds against a simulation.

#include <iostream>

#include "engine/analysis_engine.hpp"
#include "graph/paths.hpp"
#include "graph/task_graph.hpp"
#include "sched/bus.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace ceta;

  TaskGraph g;
  auto source = [&g](const char* name, Duration period) {
    Task t;
    t.name = name;
    t.period = period;
    return g.add_task(t);
  };
  auto stage = [&g](const char* name, Duration wcet, Duration bcet,
                    Duration period, EcuId ecu) {
    Task t;
    t.name = name;
    t.wcet = wcet;
    t.bcet = bcet;
    t.period = period;
    t.ecu = ecu;
    return g.add_task(t);
  };

  // Sensors (sources).
  const TaskId camera = source("camera", Duration::ms(33));
  const TaskId lidar = source("lidar", Duration::ms(100));
  const TaskId radar = source("radar", Duration::ms(50));

  // ECU 0: vision.  ECU 1: lidar/radar.  ECU 2: fusion/planning/control.
  const TaskId img_proc =
      stage("img_proc", Duration::ms(8), Duration::ms(4), Duration::ms(33), 0);
  const TaskId detect =
      stage("detect", Duration::ms(10), Duration::ms(6), Duration::ms(33), 0);
  const TaskId cloud =
      stage("cloud", Duration::ms(20), Duration::ms(10), Duration::ms(100), 1);
  const TaskId segment = stage("segment", Duration::ms(15), Duration::ms(8),
                               Duration::ms(100), 1);
  const TaskId radar_proc = stage("radar_proc", Duration::ms(3),
                                  Duration::ms(1), Duration::ms(50), 1);
  const TaskId fusion =
      stage("fusion", Duration::ms(5), Duration::ms(3), Duration::ms(50), 2);
  // plan must stay short: under non-preemptive scheduling its WCET blocks
  // the 10ms control task on the same ECU (R(control) <= 10ms requires
  // every lower-priority WCET on ECU 2 to be <= 8ms).
  const TaskId plan =
      stage("plan", Duration::ms(6), Duration::ms(3), Duration::ms(100), 2);
  const TaskId control =
      stage("control", Duration::ms(2), Duration::ms(1), Duration::ms(10), 2);

  g.add_edge(camera, img_proc);
  g.add_edge(img_proc, detect);
  g.add_edge(lidar, cloud);
  g.add_edge(cloud, segment);
  g.add_edge(radar, radar_proc);
  g.add_edge(detect, fusion);
  g.add_edge(segment, fusion);
  g.add_edge(radar_proc, fusion);
  g.add_edge(fusion, plan);
  g.add_edge(plan, control);

  assign_priorities_rate_monotonic(g);
  g.validate();

  // Model inter-ECU communication as CAN message tasks.
  BusConfig bus;
  bus.bus_resource = 10;
  bus.msg_wcet = Duration::us(500);
  bus.msg_bcet = Duration::us(250);
  const TaskGraph with_bus = insert_can_messages(g, bus);
  std::cout << "Pipeline: " << g.num_tasks() << " tasks ("
            << with_bus.num_tasks() - g.num_tasks()
            << " CAN messages inserted)\n";

  // One engine for the whole bus-extended pipeline; both analyzed tasks
  // and both methods share its RTA and chain-set caches.
  const AnalysisEngine engine(with_bus);
  if (!engine.schedulable()) {
    std::cerr << "pipeline is not schedulable\n";
    return 1;
  }

  // The fusion task consumes all three sensors; bound its disparity —
  // the requirement that camera/LiDAR/radar samples fused together were
  // taken close enough in time.
  for (TaskId analyzed : {fusion, control}) {
    DisparityOptions opt;
    opt.method = DisparityMethod::kIndependent;
    const Duration pdiff = engine.disparity(analyzed, opt).worst_case;
    const DisparityReport rep = engine.disparity(analyzed);
    std::cout << "\n'" << with_bus.task(analyzed).name << "' fuses "
              << rep.chains.size() << " sensor chains:\n"
              << "  P-diff: " << to_string(pdiff) << '\n'
              << "  S-diff: " << to_string(rep.worst_case) << '\n';

    SimOptions sopt;
    sopt.duration = Duration::s(20);
    const SimResult sim = Simulator(with_bus, sopt).run();
    std::cout << "  Sim:    " << to_string(sim.max_disparity[analyzed])
              << '\n';
    if (sim.max_disparity[analyzed] > rep.worst_case) {
      std::cerr << "bound violated!\n";
      return 1;
    }
  }

  std::cout << "\nAll disparity bounds validated by simulation.\n";
  return 0;
}
