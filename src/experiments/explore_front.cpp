#include "experiments/explore_front.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "disparity/analyzer.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/incremental.hpp"
#include "explore/explorer.hpp"
#include "graph/generator.hpp"
#include "waters/generator.hpp"

namespace ceta {

namespace {

void report(const ExploreFrontProgress& progress, const std::string& msg) {
  if (progress) progress(msg);
}

}  // namespace

std::vector<ExploreFrontPoint> run_explore_front(
    const ExploreFrontConfig& cfg, const ExploreFrontProgress& progress) {
  std::vector<ExploreFrontPoint> points;
  for (const std::size_t len : cfg.chain_lengths) {
    // First schedulable merged two-chain WATERS instance at this length.
    TaskGraph g;
    std::uint64_t waters_seed = cfg.seed;
    bool found = false;
    for (int retry = 0; retry < cfg.max_retries; ++retry, ++waters_seed) {
      g = merge_chains_at_sink(len, len);
      Rng rng(waters_seed);
      WatersAssignOptions wopt;
      wopt.num_ecus = cfg.num_ecus;
      assign_waters_parameters(g, wopt, rng);
      if (AnalysisEngine probe(g); probe.schedulable()) {
        found = true;
        break;
      }
    }
    if (!found) {
      report(progress, "explore_front: no schedulable instance at length " +
                           std::to_string(len) + ", skipping");
      continue;
    }
    const TaskId sink = g.sinks().front();

    AnalysisEngine engine(std::move(g));
    seed_priorities(engine);

    ExploreFrontPoint p;
    p.chain_length = len;
    p.waters_seed = waters_seed;

    // Single-axis baseline: Algorithm 1 sweep on the worst chain pair of
    // the Audsley-seeded configuration.
    DisparityOptions dopt;
    dopt.keep_pairs = KeepPairs::kWorstOnly;
    const DisparityReport rep = engine.disparity(sink, dopt);
    p.start_disparity = rep.worst_case;
    p.start_memory = static_cast<std::int64_t>(engine.graph().num_edges());
    p.baseline_best = rep.worst_case;
    p.baseline_memory = p.start_memory;
    if (!rep.pairs.empty()) {
      const Path& lambda = rep.chains[rep.pairs.front().chain_a];
      const Path& nu = rep.chains[rep.pairs.front().chain_b];
      const std::vector<ParetoPoint> curve =
          buffer_pareto(engine, lambda, nu);
      p.baseline_points = curve.size();
      for (const ParetoPoint& c : curve) {
        if (c.bound < p.baseline_best) {
          p.baseline_best = c.bound;
          p.baseline_memory = p.start_memory + (c.buffer_size - 1);
        }
      }
    }

    // Explorer front over the joint space.
    explore::ExploreOptions eopt;
    eopt.seed = cfg.explore_seed;
    eopt.moves_per_restart = cfg.moves_per_restart;
    eopt.restarts = cfg.restarts;
    eopt.num_threads = cfg.num_threads;
    const explore::ExploreResult result = explore::explore(engine, sink, eopt);

    p.front_size = result.archive.size();
    p.explore_best = result.start.disparity;
    p.explore_best_memory = result.start.memory;
    p.explore_best_at_budget = result.start.disparity;
    for (const explore::ArchiveEntry& e : result.archive) {
      if (e.objectives.disparity < p.explore_best) {
        p.explore_best = e.objectives.disparity;
        p.explore_best_memory = e.objectives.memory;
      }
      if (e.objectives.memory <= p.baseline_memory &&
          e.objectives.disparity < p.explore_best_at_budget) {
        p.explore_best_at_budget = e.objectives.disparity;
      }
    }

    report(progress,
           "explore_front: length " + std::to_string(len) + " baseline " +
               std::to_string(p.baseline_best.count()) + "ns@" +
               std::to_string(p.baseline_memory) + " explorer " +
               std::to_string(p.explore_best_at_budget.count()) + "ns@<=" +
               std::to_string(p.baseline_memory) + " (front " +
               std::to_string(p.front_size) + ")");
    points.push_back(p);
  }
  return points;
}

}  // namespace ceta
