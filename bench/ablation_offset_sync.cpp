// Ablation: buffers (§IV) vs offset synthesis on deterministic LET
// fusion systems, with exact disparities (no bound pessimism — the LET
// closure makes the analysis exact, disparity/exact.hpp).
//
// The comparison hinges on the period lattice:
//  * With *harmonic* periods (each divides the next), relative phases
//    lock, and planning release offsets aligns the traced samples as far
//    as the coarsest period on any chain allows, with no buffer memory.
//  * With WATERS' mixed periods (2 vs 5 ms etc.), relative phases sweep
//    through all residues over the hyperperiod, so no static offset
//    assignment can prevent the worst alignment: offsets then do roughly
//    what buffers do (shift windows).
// Either way both techniques plateau at the same structural floor — the
// staleness quantization of the coarsest-period hop — which only a faster
// pipeline can lower (see disparity_sensitivity in engine/incremental.hpp).

#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "disparity/exact.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/incremental.hpp"
#include "experiments/table.hpp"
#include "graph/generator.hpp"
#include "sched/priority.hpp"
#include "waters/generator.hpp"

namespace {

using namespace ceta;

/// Re-draw the periods of every task from a harmonic set (keeps WATERS
/// execution times).
void make_harmonic(TaskGraph& g, Rng& rng) {
  const Duration menu[] = {Duration::ms(10), Duration::ms(20),
                           Duration::ms(100)};
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    Task& t = g.task(id);
    t.period = menu[rng.uniform_int(0, 2)];
    if (t.wcet >= t.period) t.wcet = t.bcet = t.period / 10;
    t.offset = Duration::zero();
  }
}

void run_table(const char* label, bool harmonic, std::size_t instances,
               Rng& rng, std::string& csv) {
  std::cout << label << "\n\n";
  ConsoleTable table(
      {"chain len", "baseline[ms]", "buffers[ms]", "offsets[ms]"});
  for (const std::size_t len : {3u, 4u, 5u}) {
    OnlineStats base, buf, off;
    for (std::size_t i = 0; i < instances; ++i) {
      TaskGraph g = merge_chains_at_sink(len, len);
      WatersAssignOptions wopt;
      wopt.num_ecus = 3;
      assign_waters_parameters(g, wopt, rng);
      if (harmonic) {
        Rng hr = rng.split();
        make_harmonic(g, hr);
      }
      g.set_comm_semantics(CommSemantics::kLet);
      Rng offset_rng = rng.split();
      randomize_offsets(g, offset_rng);
      AnalysisEngine engine(g);
      if (!engine.schedulable()) {
        --i;
        continue;
      }
      const TaskId sink = g.sinks().front();

      const Duration baseline =
          exact_let_disparity(g, sink).worst_disparity;
      base.add(baseline.as_ms());

      const MultiBufferDesign d = engine.optimize_buffers(sink);
      TaskGraph buffered = g;
      apply_multi_buffer_design(buffered, d);
      buf.add(exact_let_disparity(buffered, sink).worst_disparity.as_ms());

      off.add(plan_source_offsets(engine, sink).optimized.as_ms());
    }
    table.add_row({std::to_string(len), fmt_double(base.mean()),
                   fmt_double(buf.mean()), fmt_double(off.mean())});
  }
  table.print(std::cout);
  std::cout << '\n';
  csv += std::string("# ") + label + "\n" + table.to_csv();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceta;
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const std::size_t instances = cli.fast ? 3 : 10;
  Rng rng(cli.seed ? cli.seed : 20230406);

  std::cout << "Ablation: buffers vs offset synthesis on LET fusion systems "
               "(exact disparities, means over "
            << instances << " instances)\n\n";
  std::string csv;
  run_table("WATERS mixed periods:", false, instances, rng, csv);
  run_table("Harmonic periods {10, 20, 100}ms:", true, instances, rng, csv);

  std::cout << "Both techniques converge to the same structural floor (the "
               "coarsest-period staleness quantization); offsets need phase "
               "control but no memory, buffers the reverse.\n";
  if (!cli.csv_path.empty()) {
    write_file(cli.csv_path, csv);
  }
  return 0;
}
