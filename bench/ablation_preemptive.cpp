// Ablation: dispatching discipline vs disparity bound tightness.
//
// Trade-off being measured: preemption removes blocking (tighter response
// times via the preemptive busy-window RTA) but weakens Lemma 4's same-ECU
// hop refinements — the lower-priority-producer case degrades to θ = T + R,
// and under EDF both refinements vanish.  Each column flips every ECU of
// the same WATERS instance to one discipline through the per-ECU policy
// seam (TaskGraph::set_policy): the RTA, the hop routing and the simulator
// all follow the graph, so the three columns differ *only* in dispatching.
// Under WATERS utilizations the periods dominate, so the disparity bounds
// stay close while the response-time columns separate; the preemption
// counters confirm the simulated systems actually behave differently.

#include <iostream>
#include <numeric>

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

/// The instance with every occupied ECU flipped to `policy`.
ceta::TaskGraph with_policy(const ceta::TaskGraph& g,
                            ceta::SchedPolicy policy) {
  ceta::TaskGraph out = g;
  for (ceta::TaskId id = 0; id < g.num_tasks(); ++id) {
    if (g.task(id).ecu != ceta::kNoEcu) out.set_policy(g.task(id).ecu, policy);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceta;
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const std::size_t instances = cli.fast ? 3 : 10;
  Rng rng(cli.seed ? cli.seed : 20230405);

  std::cout << "Ablation: non-preemptive vs preemptive FP vs EDF dispatch "
               "(two-chain WATERS fusion on 2 ECUs, means over "
            << instances << " instances)\n\n";

  ConsoleTable table({"chain len", "mean R np[ms]", "mean R p[ms]",
                      "mean R edf[ms]", "S-diff np[ms]", "S-diff p[ms]",
                      "S-diff edf[ms]", "Sim np[ms]", "Sim p[ms]",
                      "Sim edf[ms]", "preempts"});
  for (const std::size_t len : {5u, 10u, 15u, 20u}) {
    OnlineStats r_np, r_p, r_edf, d_np, d_p, d_edf, s_np, s_p, s_edf,
        preempts;
    for (std::size_t i = 0; i < instances; ++i) {
      TaskGraph g = merge_chains_at_sink(len, len);
      WatersAssignOptions wopt;
      wopt.num_ecus = 2;  // denser ECUs -> more contention
      assign_waters_parameters(g, wopt, rng);
      Rng offset_rng = rng.split();
      randomize_offsets(g, offset_rng);
      // Three copies of the same instance, differing only in the per-ECU
      // dispatching discipline; every downstream consumer (RTA, hop
      // routing, simulator) reads the policy from the graph.
      const TaskGraph g_p = with_policy(g, SchedPolicy::kPreemptive);
      const TaskGraph g_edf = with_policy(g, SchedPolicy::kEdf);
      const AnalysisEngine engine_np(g);
      const AnalysisEngine engine_p(g_p);
      const AnalysisEngine engine_edf(g_edf);
      if (!engine_np.schedulable() || !engine_p.schedulable() ||
          !engine_edf.schedulable()) {
        --i;
        continue;
      }
      const TaskId sink = g.sinks().front();

      // Mean per-task WCRT, not max: the lowest-priority task's fixpoint
      // coincides across disciplines at WATERS utilizations (no blocking
      // below it, one interfering job each above it), so the max washes
      // out exactly the blocking-vs-preemption effect being ablated.
      Duration sum_np = Duration::zero();
      Duration sum_p = Duration::zero();
      Duration sum_edf = Duration::zero();
      for (TaskId id = 0; id < g.num_tasks(); ++id) {
        sum_np += engine_np.response_times()[id];
        sum_p += engine_p.response_times()[id];
        sum_edf += engine_edf.response_times()[id];
      }
      const double n = static_cast<double>(g.num_tasks());
      r_np.add(sum_np.as_ms() / n);
      r_p.add(sum_p.as_ms() / n);
      r_edf.add(sum_edf.as_ms() / n);

      // One disparity call per discipline: hop_bound routes the Lemma 4
      // same-ECU refinements by the graph's policy, so no manual
      // kSchedulingAgnostic override is needed anymore.
      d_np.add(engine_np.disparity(sink).worst_case.as_ms());
      d_p.add(engine_p.disparity(sink).worst_case.as_ms());
      d_edf.add(engine_edf.disparity(sink).worst_case.as_ms());

      SimOptions sopt;
      sopt.duration = Duration::s(4);
      sopt.warmup = Duration::s(1);
      sopt.seed = rng.split().seed();
      const SimResult res_np = Simulator(g, sopt).run();
      const SimResult res_p = Simulator(g_p, sopt).run();
      const SimResult res_edf = Simulator(g_edf, sopt).run();
      s_np.add(res_np.max_disparity[sink].as_ms());
      s_p.add(res_p.max_disparity[sink].as_ms());
      s_edf.add(res_edf.max_disparity[sink].as_ms());
      preempts.add(static_cast<double>(
          std::accumulate(res_p.preemptions.begin(), res_p.preemptions.end(),
                          std::int64_t{0})));
    }
    table.add_row({std::to_string(len), fmt_double(r_np.mean(), 3),
                   fmt_double(r_p.mean(), 3), fmt_double(r_edf.mean(), 3),
                   fmt_double(d_np.mean()), fmt_double(d_p.mean()),
                   fmt_double(d_edf.mean()), fmt_double(s_np.mean()),
                   fmt_double(s_p.mean()), fmt_double(s_edf.mean()),
                   fmt_double(preempts.mean(), 0)});
  }
  table.print(std::cout);
  std::cout << "\n'mean R' = mean per-task WCRT bound under that "
               "discipline's RTA; 'preempts' = preemptions observed in the "
               "4s preemptive-FP simulation\n";
  if (!cli.csv_path.empty()) {
    write_file(cli.csv_path, table.to_csv());
  }
  return 0;
}
