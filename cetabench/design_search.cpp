// design_search: design-space search on seeded WATERS systems.
//
// Set-up step i builds the base AnalysisEngine of system i (and its RTA).
// Op i runs one single-thread explore() campaign with fixed restarts ×
// moves on that engine, then the engine's §IV sweeps on it: buffer_pareto
// over the sink's worst chain pair, disparity_sensitivity and
// plan_source_offsets.  The explorer and these sweeps run in no other
// workload.
#include <memory>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/incremental.hpp"
#include "explore/explorer.hpp"
#include "graph/serialize.hpp"
#include "harness.hpp"

namespace cetabench {
namespace {

using namespace ceta;

constexpr std::size_t kSystems = 40;
constexpr std::size_t kMaxChains = 40;

struct System {
  TaskGraph graph;
  TaskId sink = 0;
  Path lambda;  // the sink's worst chain pair, for buffer_pareto
  Path nu;
};

struct OpResult {
  explore::ExploreResult explored;
  std::vector<ParetoPoint> pareto;
  std::vector<SensitivityEntry> sensitivity;
  OffsetPlan offsets;
};

class DesignSearch final : public Workload {
 public:
  explicit DesignSearch(std::uint64_t seed)
      : engines_(kSystems), results_(kSystems) {
    opt_.seed = seed;
    opt_.num_threads = 1;
    opt_.restarts = 2;
    opt_.moves_per_restart = 96;
    for (std::size_t i = 0; i < kSystems; ++i) {
      Rng topo = topology_rng(5, i);
      Rng param = item_rng(seed, 5, i);
      const std::size_t tasks = 20 + 20 * i / (kSystems - 1);
      WatersSystem s = waters_system(topo, param, tasks, i % 2 == 1, 4, kMaxChains);
      // plan_source_offsets evaluates the exact LET disparity, which needs
      // every task under LET.
      s.graph.set_comm_semantics(CommSemantics::kLet);
      EngineOptions eopt;
      eopt.num_threads = 1;
      const AnalysisEngine probe(s.graph, eopt);
      const DisparityReport r = probe.disparity(s.sink);
      std::size_t w = 0;
      for (std::size_t k = 1; k < r.pairs.size(); ++k) {
        if (r.pairs[k].bound > r.pairs[w].bound) w = k;
      }
      systems_.push_back({std::move(s.graph), s.sink,
                          r.chains[r.pairs[w].chain_a],
                          r.chains[r.pairs[w].chain_b]});
    }
  }

  std::size_t num_setup_steps() const override { return kSystems; }
  std::size_t num_ops() const override { return kSystems; }

  void setup_step(std::size_t i, StepContext& ctx) override {
    EngineOptions eopt;
    eopt.num_threads = 1;
    engines_[i] = ctx.span("engine.build", [&] {
      return std::make_unique<AnalysisEngine>(systems_[i].graph, eopt);
    });
    ctx.span("sched.rta", [&] { (void)engines_[i]->rta(); });
  }

  void run_op(std::size_t i, StepContext& ctx) override {
    AnalysisEngine& engine = *engines_[i];
    const System& s = systems_[i];
    OpResult& r = results_[i];
    ctx.write([&] {
      r.explored = ctx.span("explore.run",
                            [&] { return explore::explore(engine, s.sink, opt_); });
    });
    r.pareto = ctx.span("engine.pareto",
                        [&] { return buffer_pareto(engine, s.lambda, s.nu); });
    r.sensitivity = ctx.span("engine.sensitivity",
                             [&] { return disparity_sensitivity(engine, s.sink); });
    OffsetPlanOptions oopt;
    oopt.tunables = OffsetTunables::kSourcesOnly;
    oopt.passes = 1;
    r.offsets = ctx.span("engine.offset_plan",
                         [&] { return plan_source_offsets(engine, s.sink, oopt); });
  }

  OpOutcome observe_op(std::size_t i, Counts& counts, bool check) override {
    OpResult r = std::move(results_[i]);
    results_[i] = OpResult{};
    const std::unique_ptr<AnalysisEngine> engine = std::move(engines_[i]);
    const System& s = systems_[i];
    const explore::ExploreStats& st = r.explored.stats;
    counts["graph.tasks"] += static_cast<double>(s.graph.num_tasks());
    counts["graph.edges"] += static_cast<double>(s.graph.num_edges());
    counts["explore.proposed"] += static_cast<double>(st.proposed);
    counts["explore.accepted"] += static_cast<double>(st.accepted);
    counts["explore.rolled_back"] += static_cast<double>(st.rolled_back);
    counts["explore.evaluations"] += static_cast<double>(st.evaluations);
    counts["explore.front_size"] += static_cast<double>(r.explored.archive.size());
    const obs::MetricsSnapshot m = engine->metrics();
    const auto c = [&](const char* name) { return static_cast<double>(m.counter(name)); };
    counts["engine.report_hits"] += c("engine.reports.hits");
    counts["engine.report_misses"] += c("engine.reports.misses");
    counts["engine.stale_evictions"] += c("engine.hop.stale") +
                                        c("engine.chain_bounds.stale") +
                                        c("engine.chain_sets.stale") +
                                        c("engine.reports.stale");
    counts["engine.survived_hits"] += c("engine.cache.survived_hits");
    counts["engine.commits"] += c("engine.mutate.commits");
    counts["engine.rta_refreshed_tasks"] += c("engine.rta.refreshed_tasks");

    Digest d;
    for (const explore::ArchiveEntry& e : r.explored.archive) {
      d.add(e.objectives.disparity.count())
          .add(e.objectives.data_age.count())
          .add(e.objectives.memory);
    }
    for (const ParetoPoint& p : r.pareto) d.add(p.bound.count());
    for (const SensitivityEntry& e : r.sensitivity) d.add(e.perturbed.count());
    d.add(r.offsets.optimized.count()).add(r.offsets.evaluations);

    OpOutcome out;
    out.digest = d.h;
    if (!check) return out;
    // The sweeps restore the engine's graph when they return.
    if (to_text(engine->graph()) != to_text(s.graph)) {
      out.ok = false;
      out.failure = "sweeps left the engine's graph changed";
      return out;
    }
    for (const explore::ArchiveEntry& e : r.explored.archive) {
      if (explore::replay_objectives(s.graph, e, s.sink, opt_) != e.objectives) {
        out.ok = false;
        out.failure = "archived entry does not replay to its objectives";
        return out;
      }
    }
    if (r.offsets.optimized > r.offsets.baseline) {
      out.ok = false;
      out.failure = "offset plan raised the disparity";
    }
    return out;
  }

 private:
  explore::ExploreOptions opt_;
  std::vector<System> systems_;
  std::vector<std::unique_ptr<AnalysisEngine>> engines_;
  std::vector<OpResult> results_;
};

}  // namespace

std::unique_ptr<Workload> make_design_search(std::uint64_t seed) {
  return std::make_unique<DesignSearch>(seed);
}

}  // namespace cetabench
