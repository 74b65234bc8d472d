// Ablation (paper Fig. 4): raising the sampling frequency of a middle
// task does NOT reduce the worst-case time disparity — the buffer design
// does.  Sweeps the middle task's period downward in the two-chain fusion
// topology and reports the S-diff bound, the Theorem 3 optimized bound,
// and measured disparities.

#include <iostream>

#include "bench_util.hpp"
#include "disparity/buffer_opt.hpp"
#include "engine/analysis_engine.hpp"
#include "experiments/table.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace ceta;
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const Duration sim_time = cli.fast ? Duration::s(5) : Duration::s(30);

  std::cout
      << "Ablation (Fig. 4): middle-task frequency vs buffer design\n"
         "Topology: S1(10ms)->P(T varies)->F(30ms) joined by "
         "S2(100ms)->Q(100ms)->F\n\n";

  ConsoleTable table({"T(P)", "S-diff[ms]", "S-diff-B[ms]", "buf",
                      "Sim[ms]", "Sim-B[ms]"});
  bool frequency_helped = false;
  double first_bound = 0.0;
  for (const Duration period :
       {Duration::ms(30), Duration::ms(15), Duration::ms(10),
        Duration::ms(5)}) {
    const AnalysisEngine engine(build(period));
    const TaskGraph& g = engine.graph();
    const auto& chains = engine.chains(4);
    DisparityOptions dopt;
    dopt.method = DisparityMethod::kForkJoin;
    const Duration sdiff = engine.disparity(4, dopt).worst_case;
    const BufferDesign d = engine.optimize_buffer_pair(chains[0], chains[1]);

    SimOptions sopt;
    sopt.duration = sim_time;
    sopt.warmup = sim_time / 5;
    const SimResult base = Simulator(g, sopt).run();
    TaskGraph buffered = g;
    apply_buffer_design(buffered, d);
    const SimResult opt = Simulator(buffered, sopt).run();

    table.add_row({to_string(period), fmt_double(sdiff.as_ms()),
                   fmt_double(d.optimized_bound.as_ms()),
                   std::to_string(d.buffer_size),
                   fmt_double(base.max_disparity[4].as_ms()),
                   fmt_double(opt.max_disparity[4].as_ms())});
    if (first_bound == 0.0) {
      first_bound = sdiff.as_ms();
    } else if (sdiff.as_ms() < 0.5 * first_bound) {
      frequency_helped = true;  // a 2x improvement would contradict Fig. 4
    }
  }
  table.print(std::cout);
  std::cout << "\nraising P's frequency cut the worst-case bound: "
            << (frequency_helped ? "YES (unexpected)" : "no (as in Fig. 4)")
            << '\n';
  if (!cli.csv_path.empty()) {
    write_file(cli.csv_path, table.to_csv());
  }
  return frequency_helped ? 1 : 0;
}
