// Ablation: implicit (AUTOSAR) vs LET (Logical Execution Time)
// communication.  LET publishes at deadlines, decoupling data timing from
// scheduling and execution — the disparity becomes deterministic for fixed
// offsets — at the cost of roughly one extra period of backward time per
// hop (θ = 2T instead of T + R).  Sweeps chain length on WATERS two-chain
// fusion instances.

#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "engine/analysis_engine.hpp"
#include "experiments/table.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace {

using namespace ceta;

Duration measure(TaskGraph g, TaskId sink, std::uint64_t seed) {
  SimOptions opt;
  opt.warmup = Duration::s(2);
  opt.duration = Duration::s(6);
  opt.seed = seed;
  return Simulator(g, opt).run().max_disparity[sink];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceta;
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const std::size_t instances = cli.fast ? 3 : 10;
  Rng rng(cli.seed ? cli.seed : 20230404);

  std::cout << "Ablation: implicit vs LET communication (two-chain WATERS "
               "fusion, means over "
            << instances << " instances)\n\n";

  ConsoleTable table({"chain len", "WCBT impl[ms]", "WCBT LET[ms]",
                      "S-diff impl[ms]", "S-diff LET[ms]", "Sim impl[ms]",
                      "Sim LET[ms]", "LET jitter[ms]"});
  for (const std::size_t len : {5u, 10u, 15u, 20u}) {
    OnlineStats w_impl, w_let, d_impl, d_let, s_impl, s_let, jitter;
    for (std::size_t i = 0; i < instances; ++i) {
      TaskGraph g = merge_chains_at_sink(len, len);
      WatersAssignOptions wopt;
      wopt.num_ecus = 4;
      assign_waters_parameters(g, wopt, rng);
      // The analytical bounds ignore release offsets, so one engine built
      // pre-randomization serves the schedulability gate and all bounds.
      const AnalysisEngine engine(g);
      if (!engine.schedulable()) {
        --i;
        continue;
      }
      Rng offset_rng = rng.split();
      randomize_offsets(g, offset_rng);
      const TaskId sink = g.sinks().front();
      const auto& chains = engine.chains(sink);

      TaskGraph let_graph = g;
      let_graph.set_comm_semantics(CommSemantics::kLet);
      // LET timing is scheduler-independent; share the implicit-mode WCRTs
      // via the engine's external response-time mode.
      const AnalysisEngine let_engine(let_graph, engine.response_times());

      for (const Path& c : chains) {
        w_impl.add(engine.chain_bounds(c).wcbt.as_ms());
        w_let.add(let_engine.chain_bounds(c).wcbt.as_ms());
      }
      d_impl.add(engine.disparity(sink).worst_case.as_ms());
      d_let.add(let_engine.disparity(sink).worst_case.as_ms());
      s_impl.add(measure(g, sink, rng.split().seed()).as_ms());
      // LET determinism: for fixed offsets, the measured disparity must
      // not move across execution-time randomizations.
      const double let_a = measure(let_graph, sink, 1).as_ms();
      const double let_b = measure(let_graph, sink, 2).as_ms();
      s_let.add(let_a);
      jitter.add(std::abs(let_a - let_b));
    }
    table.add_row({std::to_string(len), fmt_double(w_impl.mean()),
                   fmt_double(w_let.mean()), fmt_double(d_impl.mean()),
                   fmt_double(d_let.mean()), fmt_double(s_impl.mean()),
                   fmt_double(s_let.mean()), fmt_double(jitter.mean(), 4)});
  }
  table.print(std::cout);
  std::cout << "\n'LET jitter' = |measured disparity difference| between "
               "two execution-time randomizations under LET (expected 0 — "
               "data timing is decoupled from execution)\n";
  if (!cli.csv_path.empty()) {
    write_file(cli.csv_path, table.to_csv());
  }
  return 0;
}
