// system_verdict: the paper's §V use case, done the way an analyst would.
//
// Set-up step i generates WATERS system i and serialises it.  Op i takes
// that text through graph_from_text → AnalysisEngine → RTA → chains, chain
// bounds and disparity of every fusing task → optimize_buffers on the worst
// task → a Monte-Carlo fleet that checks the worst task's bound.  The pair
// kernel, the chain bounds, §IV design and the simulator do the work; the
// DAG-DP backend and the service stay idle.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "disparity/analyzer.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/serialize.hpp"
#include "harness.hpp"
#include "sched/npfp_rta.hpp"
#include "sim/montecarlo.hpp"

namespace cetabench {
namespace {

using namespace ceta;

constexpr std::size_t kSystems = 100;
constexpr std::size_t kMaxChains = 120;

struct OpResult {
  std::unique_ptr<AnalysisEngine> engine;
  std::vector<TaskId> fusing;
  std::vector<std::size_t> chains;  // per fusing task
  std::vector<DisparityReport> reports;
  TaskId worst = 0;
  MultiBufferDesign design;
  sim::MonteCarloResult mc;
};

bool same_report(const DisparityReport& a, const DisparityReport& b) {
  if (a.worst_case != b.worst_case || a.chains != b.chains ||
      a.pairs.size() != b.pairs.size() ||
      a.source_pairs.size() != b.source_pairs.size() ||
      a.backend != b.backend || a.exact != b.exact ||
      a.chain_count != b.chain_count ||
      a.chain_count_saturated != b.chain_count_saturated ||
      a.truncated != b.truncated) {
    return false;
  }
  for (std::size_t k = 0; k < a.pairs.size(); ++k) {
    const PairDisparity& p = a.pairs[k];
    const PairDisparity& q = b.pairs[k];
    if (p.chain_a != q.chain_a || p.chain_b != q.chain_b || p.bound != q.bound) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.source_pairs.size(); ++k) {
    const SourcePairDisparity& p = a.source_pairs[k];
    const SourcePairDisparity& q = b.source_pairs[k];
    if (p.source_a != q.source_a || p.source_b != q.source_b ||
        p.bound != q.bound) {
      return false;
    }
  }
  return true;
}

class SystemVerdict final : public Workload {
 public:
  explicit SystemVerdict(std::uint64_t seed)
      : seed_(seed), texts_(kSystems), results_(kSystems) {}

  std::size_t num_setup_steps() const override { return kSystems; }
  std::size_t num_ops() const override { return kSystems; }

  void setup_step(std::size_t i, StepContext& ctx) override {
    Rng topo = topology_rng(1, i);
    Rng param = item_rng(seed_, 1, i);
    const std::size_t tasks = 20 + 40 * i / (kSystems - 1);
    const WatersSystem s = ctx.span("waters.generate", [&] {
      return waters_system(topo, param, tasks, i % 2 == 1, 4, kMaxChains);
    });
    texts_[i] = ctx.span("graph.serialize", [&] { return to_text(s.graph); });
  }

  void run_op(std::size_t i, StepContext& ctx) override {
    OpResult& r = results_[i];
    EngineOptions eopt;
    eopt.num_threads = 1;
    ctx.write([&] {
      TaskGraph g = ctx.span("graph.parse", [&] {
        TaskGraph parsed = graph_from_text(texts_[i]);
        parsed.validate();
        return parsed;
      });
      r.engine = ctx.span("engine.build", [&] {
        return std::make_unique<AnalysisEngine>(std::move(g), eopt);
      });
    });
    const AnalysisEngine& engine = *r.engine;
    ctx.span("sched.rta", [&] { (void)engine.rta(); });
    r.fusing = ctx.span("chain.enumerate", [&] { return engine.fusing_tasks(); });
    for (const TaskId task : r.fusing) {
      const std::vector<Path>& chains =
          ctx.span("chain.enumerate", [&]() -> const std::vector<Path>& {
            return engine.chains(task);
          });
      r.chains.push_back(chains.size());
      ctx.span("chain.bounds", [&] {
        for (const Path& c : chains) (void)engine.chain_bounds(c);
      });
      r.reports.push_back(ctx.span("disparity.kernel",
                                   [&] { return engine.disparity(task); }));
    }
    std::size_t w = 0;
    for (std::size_t k = 1; k < r.reports.size(); ++k) {
      if (r.reports[k].worst_case > r.reports[w].worst_case) w = k;
    }
    r.worst = r.fusing[w];
    r.design = ctx.span("disparity.design",
                        [&] { return engine.optimize_buffers(r.worst); });

    sim::MonteCarloOptions mopt;
    mopt.num_threads = 1;
    mopt.first_seed = seed_ * 1000 + i;
    mopt.replications = 24;
    mopt.sim.duration = Duration::ms(120);
    mopt.sim.warmup = Duration::ms(20);
    mopt.observed = {r.worst};
    mopt.bounds = {r.reports[w].worst_case};
    r.mc = ctx.span("sim.mc",
                    [&] { return sim::run_monte_carlo(engine.graph(), mopt); });
  }

  OpOutcome observe_op(std::size_t i, Counts& counts, bool check) override {
    OpResult r = std::move(results_[i]);
    results_[i] = OpResult{};
    OpOutcome out;
    const TaskGraph& g = r.engine->graph();
    Digest d;
    counts["graph.tasks"] += static_cast<double>(g.num_tasks());
    counts["graph.edges"] += static_cast<double>(g.num_edges());
    for (std::size_t k = 0; k < r.reports.size(); ++k) {
      counts["chain.chains"] += static_cast<double>(r.chains[k]);
      counts["disparity.pairs"] += static_cast<double>(r.reports[k].pairs.size());
      d.add(r.reports[k].worst_case.count()).add(r.reports[k].pairs.size());
    }
    counts["disparity.design_baseline_ns"] +=
        static_cast<double>(r.design.baseline_bound.count());
    counts["disparity.design_optimized_ns"] +=
        static_cast<double>(r.design.optimized_bound.count());
    const sim::TaskMonteCarlo& t = r.mc.tasks.front();
    counts["sim.runs"] += 1;
    counts["sim.events"] += static_cast<double>(r.mc.events);
    counts["sim.jobs"] += static_cast<double>(r.mc.jobs_finished);
    counts["sim.violations"] += static_cast<double>(t.bound_violations);
    counts["sim.tightness_sum"] += t.tightness;
    const obs::MetricsSnapshot m = r.engine->metrics();
    counts["engine.report_hits"] += static_cast<double>(m.counter("engine.reports.hits"));
    counts["engine.report_misses"] +=
        static_cast<double>(m.counter("engine.reports.misses"));
    d.add(r.design.optimized_bound.count())
        .add(t.worst_sample.count())
        .add(r.mc.events)
        .add(t.disparity.count);

    // Monte-Carlo samples are checked on every round: the fleet reports
    // each sample above its bound.
    if (!r.mc.all_within_bounds || t.bound_violations != 0) {
      out.ok = false;
      out.failure = "Monte-Carlo sample above the disparity bound";
    }
    if (check && out.ok) {
      const RtaResult rta = analyze_response_times(g);
      for (std::size_t k = 0; k < r.reports.size() && out.ok; ++k) {
        const DisparityReport ref =
            analyze_time_disparity(g, r.fusing[k], rta.response_time);
        if (!same_report(r.reports[k], ref)) {
          out.ok = false;
          out.failure = "kernel report of task " + std::to_string(r.fusing[k]) +
                        " differs from analyze_time_disparity";
        }
      }
      if (out.ok && r.design.optimized_bound > r.design.baseline_bound) {
        out.ok = false;
        out.failure = "buffer design raised the bound";
      }
    }
    out.digest = d.h;
    return out;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::string> texts_;
  std::vector<OpResult> results_;
};

}  // namespace

std::unique_ptr<Workload> make_system_verdict(std::uint64_t seed) {
  return std::make_unique<SystemVerdict>(seed);
}

}  // namespace cetabench
