#include "experiments/fig6ab.hpp"

#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "engine/analysis_engine.hpp"
#include "experiments/table.hpp"
#include "graph/generator.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace ceta {

namespace {

struct GraphRun {
  double pdiff_ms = 0.0;
  double sdiff_ms = 0.0;
  double sim_ms = 0.0;
};

/// Build one admissible instance: random single-sink DAG + WATERS
/// parameters, schedulable, with >= 2 source chains to the sink and a
/// path count under the cap.  Retries with fresh randomness.
GraphRun run_one_graph(std::size_t n, const Fig6abConfig& cfg, Rng& rng,
                       std::size_t& capacity_skips) {
  for (int attempt = 0; attempt < cfg.max_retries; ++attempt) {
    try {
      TaskGraph g = [&] {
        if (cfg.topology == Fig6Topology::kFunnel) {
          FunnelDagOptions fopt;
          fopt.num_tasks = n;
          return funnel_random_dag(fopt, rng);
        }
        GnmDagOptions gopt;
        gopt.num_tasks = n;
        return gnm_random_dag(gopt, rng);
      }();
      WatersAssignOptions wopt;
      wopt.num_ecus = cfg.num_ecus;
      assign_waters_parameters(g, wopt, rng);

      const TaskId sink = g.sinks().front();
      if (count_source_chains(g, sink) < 2 ||
          count_source_chains(g, sink) > cfg.path_cap) {
        continue;
      }
      // One engine per instance: P-diff and S-diff share the RTA fixpoint
      // and the enumerated chain set.
      const AnalysisEngine engine(g);
      if (!engine.schedulable()) continue;

      DisparityOptions dopt;
      dopt.path_cap = cfg.path_cap;
      dopt.method = DisparityMethod::kIndependent;
      const Duration pdiff = engine.disparity(sink, dopt).worst_case;
      dopt.method = DisparityMethod::kForkJoin;
      const Duration sdiff = engine.disparity(sink, dopt).worst_case;

      Duration sim = Duration::zero();
      for (std::size_t run = 0; run < cfg.offsets_per_graph; ++run) {
        Rng offset_rng = rng.split();
        randomize_offsets(g, offset_rng);
        SimOptions sopt;
        sopt.duration = cfg.sim_duration;
        sopt.seed = offset_rng.seed();
        sopt.exec_model = ExecTimeModel::kUniform;
        const SimResult res = Simulator(g, sopt).run();
        sim = std::max(sim, res.max_disparity[sink]);
      }

      GraphRun out;
      out.pdiff_ms = pdiff.as_ms();
      out.sdiff_ms = sdiff.as_ms();
      out.sim_ms = sim.as_ms();
      return out;
    } catch (const CapacityError&) {
      // Pathological draw (period lcm overflow, path-cap, simulator job
      // cap): skip-and-count, then retry with fresh randomness.
      ++capacity_skips;
    }
  }
  throw Error("run_fig6ab: no admissible graph after retries (n=" +
              std::to_string(n) + ")");
}

}  // namespace

std::vector<Fig6abPoint> run_fig6ab(const Fig6abConfig& cfg,
                                    const ProgressFn& progress) {
  CETA_EXPECTS(!cfg.task_counts.empty(), "run_fig6ab: no task counts");
  CETA_EXPECTS(cfg.graphs_per_point >= 1 && cfg.offsets_per_graph >= 1,
               "run_fig6ab: need at least one graph and one offset run");
  Rng rng(cfg.seed);
  std::vector<Fig6abPoint> points;
  for (std::size_t n : cfg.task_counts) {
    OnlineStats pdiff, sdiff, sim, pratio, sratio;
    std::size_t capacity_skips = 0;
    for (std::size_t gidx = 0; gidx < cfg.graphs_per_point; ++gidx) {
      const GraphRun r = run_one_graph(n, cfg, rng, capacity_skips);
      pdiff.add(r.pdiff_ms);
      sdiff.add(r.sdiff_ms);
      sim.add(r.sim_ms);
      if (r.sim_ms > 0.0) {
        pratio.add((r.pdiff_ms - r.sim_ms) / r.sim_ms);
        sratio.add((r.sdiff_ms - r.sim_ms) / r.sim_ms);
      }
    }
    Fig6abPoint p;
    p.num_tasks = n;
    p.graphs = cfg.graphs_per_point;
    p.pdiff_ms = pdiff.mean();
    p.sdiff_ms = sdiff.mean();
    p.sim_ms = sim.mean();
    p.pdiff_ratio = pratio.empty() ? 0.0 : pratio.mean();
    p.sdiff_ratio = sratio.empty() ? 0.0 : sratio.mean();
    p.capacity_skips = capacity_skips;
    points.push_back(p);
    if (progress) {
      progress("n=" + std::to_string(n) + " done: P-diff=" +
               fmt_double(p.pdiff_ms) + "ms S-diff=" +
               fmt_double(p.sdiff_ms) + "ms Sim=" + fmt_double(p.sim_ms) +
               "ms");
    }
  }
  return points;
}

}  // namespace ceta
