// large_dag: whole graphs of 10³–10⁴ tasks, one sink query each.
//
// Corpus: the DAG-DP size ladder (10³ → 10⁴ tasks, 2^333.. source chains,
// DP only), wide sensor-fusion pipelines and WATERS funnels spread over
// many ECUs (both small enough in chains to enumerate).  Set-up generates
// and serialises the corpus through TaskGraph::add_edge.  Op i: text →
// graph_from_text + validate → RTA → kAuto disparity of the sink.  The
// graph, sched and DAG-DP layers do the work; the pair kernel sees small
// chain sets; §IV design, the simulator, the engine and the service stay
// idle.
#include <memory>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/dag_dp.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "graph/serialize.hpp"
#include "harness.hpp"
#include "sched/npfp_rta.hpp"
#include "waters/generator.hpp"

namespace cetabench {
namespace {

using namespace ceta;

/// Ladder rungs in diamonds: 1000, 2149, 4645 and 10000 tasks.
constexpr std::size_t kLadderLayers[] = {333, 716, 1548, 3333};
constexpr std::size_t kFusions = 16;
constexpr std::size_t kFunnels = 8;
/// Enumeration reference for the funnels and pipelines.
constexpr std::size_t kMaxChains = 4000;
/// Ladder prefixes the DP-only reference is enumerated on.
constexpr std::size_t kPrefixLayers = 8;

enum class Kind { kLadder, kFusion, kFunnel };

struct Item {
  Kind kind = Kind::kLadder;
  std::size_t size = 0;  // ladder layers, or tasks
  std::size_t tasks = 0;
  TaskId sink = 0;
};

/// P-diff on full chains, worst pair only: the combination the DP serves
/// exactly, so both backends answer the same question.
DisparityOptions query_options(DisparityBackend backend) {
  DisparityOptions o;
  o.method = DisparityMethod::kIndependent;
  o.truncation = JointTruncation::kNever;
  o.keep_pairs = KeepPairs::kWorstOnly;
  o.backend = backend;
  return o;
}

/// Fusion pipeline or funnel with WATERS parameters over tasks/8 ECUs.
/// The funnel's topology and every period come from `topo` (the funnel is
/// redrawn until its sink is enumerable); `param` draws the rest.
TaskGraph waters_wide(Kind kind, Rng& topo, Rng& param, std::size_t tasks,
                      TaskId& sink) {
  for (;;) {
    TaskGraph g;
    if (kind == Kind::kFusion) {
      const std::size_t sensors = tasks / 8;
      g = sensor_fusion_pipeline(sensors, tasks / sensors - 1);
    } else {
      // A short pipeline behind a sparse front: about one source chain per
      // task, each short enough that enumeration stays affordable.
      FunnelDagOptions fo;
      fo.num_tasks = tasks;
      fo.pipeline_fraction = 0.02;
      fo.front_edges = tasks * 3 / 10;
      g = funnel_random_dag(fo, topo);
    }
    sink = g.sinks().front();
    if (count_source_chains_checked(g, sink).exceeds(kMaxChains)) continue;
    const int ecus = static_cast<int>(g.num_tasks() / 8);
    assign_waters_parameters(g, WatersAssignOptions{ecus}, topo);
    if (assign_schedulable(g, param, ecus, 20)) return g;
  }
}

class LargeDag final : public Workload {
 public:
  explicit LargeDag(std::uint64_t seed) : seed_(seed) {
    for (const std::size_t layers : kLadderLayers) {
      items_.push_back({Kind::kLadder, layers, ladder_tasks(layers), 0});
    }
    for (std::size_t k = 0; k < kFusions; ++k) {
      items_.push_back({Kind::kFusion, 1000 + 1500 * k / (kFusions - 1), 0, 0});
    }
    for (std::size_t k = 0; k < kFunnels; ++k) {
      items_.push_back({Kind::kFunnel, 1000 + 400 * k / (kFunnels - 1), 0, 0});
    }
    texts_.resize(items_.size());
    results_.resize(items_.size());
  }

  std::size_t num_setup_steps() const override { return items_.size(); }
  std::size_t num_ops() const override { return items_.size(); }
  std::size_t op_tasks(std::size_t i) const override { return items_[i].tasks; }
  bool on_ladder(std::size_t i) const override {
    return items_[i].kind == Kind::kLadder;
  }

  void setup_step(std::size_t i, StepContext& ctx) override {
    Item& it = items_[i];
    TaskGraph g;
    if (it.kind == Kind::kLadder) {
      g = ctx.span("waters.generate", [&] { return dagdp_ladder(it.size); });
      it.sink = g.sinks().front();
    } else {
      Rng topo = topology_rng(3, i);
      Rng param = item_rng(seed_, 3, i);
      g = ctx.span("waters.generate", [&] {
        return waters_wide(it.kind, topo, param, it.size, it.sink);
      });
    }
    it.tasks = g.num_tasks();
    texts_[i] = ctx.span("graph.serialize", [&] { return to_text(g); });
  }

  void run_op(std::size_t i, StepContext& ctx) override {
    Result& r = results_[i];
    ctx.write([&] {
      r.graph = ctx.span("graph.parse", [&] {
        TaskGraph g = graph_from_text(texts_[i]);
        g.validate();
        return g;
      });
    });
    const RtaResult rta =
        ctx.span("sched.rta", [&] { return analyze_response_times(r.graph); });
    r.report = ctx.span("disparity.kernel", [&] {
      return analyze_time_disparity_backend(
          r.graph, items_[i].sink, rta.response_time,
          query_options(DisparityBackend::kAuto));
    });
    if (r.report.backend == DisparityBackend::kDagDp) {
      ctx.spans.rename_last_closed("disparity.dp");
    }
    r.schedulable = rta.all_schedulable;
  }

  OpOutcome observe_op(std::size_t i, Counts& counts, bool check) override {
    Result r = std::move(results_[i]);
    results_[i] = Result{};
    const Item& it = items_[i];
    counts["graph.tasks"] += static_cast<double>(r.graph.num_tasks());
    counts["graph.edges"] += static_cast<double>(r.graph.num_edges());
    if (r.report.backend == DisparityBackend::kDagDp) {
      counts["disparity.dp_queries"] += 1;
      if (!r.report.exact) counts["disparity.dp_inexact"] += 1;
    } else {
      counts["chain.chains"] += static_cast<double>(r.report.chain_count);
    }
    OpOutcome out;
    out.digest = Digest{}
                     .add(r.report.worst_case.count())
                     .add(r.report.chain_count)
                     .add(static_cast<std::uint64_t>(r.report.exact))
                     .h;
    if (!check) return out;
    if (!r.schedulable) {
      out.ok = false;
      out.failure = "graph is not schedulable";
      return out;
    }
    const Duration expect = it.kind == Kind::kLadder
                                ? ladder_reference(it.size, out)
                                : enumerated_reference(r.graph, it.sink);
    if (!out.ok) return out;
    // An exact report must equal the reference; a relaxed one may only
    // exceed it.
    if (r.report.exact ? r.report.worst_case != expect
                       : r.report.worst_case < expect) {
      out.ok = false;
      out.failure = "worst case " + std::to_string(r.report.worst_case.count()) +
                    " ns, reference " + std::to_string(expect.count()) + " ns";
    }
    return out;
  }

 private:
  struct Result {
    TaskGraph graph;
    DisparityReport report;
    bool schedulable = false;
  };

  static Duration enumerated_reference(const TaskGraph& g, TaskId sink) {
    const RtaResult rta = analyze_response_times(g);
    return analyze_time_disparity_backend(
               g, sink, rta.response_time,
               query_options(DisparityBackend::kEnumerate))
        .worst_case;
  }

  /// The ladder's chain sets are far beyond enumeration, so its reference
  /// is enumeration on the ladder's own prefixes of 1..kPrefixLayers
  /// diamonds: their worst cases must grow by one exact step per diamond,
  /// and the reference extrapolates that step to `layers`.
  static Duration ladder_reference(std::size_t layers, OpOutcome& out) {
    std::vector<Duration> w;
    for (std::size_t k = 1; k <= kPrefixLayers; ++k) {
      const TaskGraph g = dagdp_ladder(k);
      w.push_back(enumerated_reference(g, g.sinks().front()));
    }
    const Duration step = w[1] - w[0];
    for (std::size_t k = 1; k < w.size(); ++k) {
      if (w[k] - w[k - 1] != step) {
        out.ok = false;
        out.failure = "ladder prefixes do not grow affinely";
        return Duration::zero();
      }
    }
    return w[0] + step * static_cast<std::int64_t>(layers - 1);
  }

  std::uint64_t seed_;
  std::vector<Item> items_;
  std::vector<std::string> texts_;
  std::vector<Result> results_;
};

}  // namespace

std::unique_ptr<Workload> make_large_dag(std::uint64_t seed) {
  return std::make_unique<LargeDag>(seed);
}

}  // namespace cetabench
