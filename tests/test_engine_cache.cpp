// AnalysisEngine cache correctness: every engine analysis must return
// byte-identical results to the corresponding free function (the buffer
// design must equal the analyzer on the buffered graph), warm-cache calls
// must equal fresh-engine calls, and the engine's owned graph copy must
// insulate results from caller-side mutation.

#include "engine/analysis_engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "chain/latency.hpp"
#include "common/error.hpp"
#include "disparity/buffer_opt.hpp"
#include "helpers.hpp"

namespace ceta {
namespace {

using ceta::testing::diamond_graph;
using ceta::testing::random_dag_graph;
using ceta::testing::response_times_of;
using ceta::testing::simple_chain_graph;

void expect_reports_equal(const DisparityReport& a, const DisparityReport& b) {
  EXPECT_EQ(a.worst_case, b.worst_case);
  ASSERT_EQ(a.chains, b.chains);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].chain_a, b.pairs[i].chain_a);
    EXPECT_EQ(a.pairs[i].chain_b, b.pairs[i].chain_b);
    EXPECT_EQ(a.pairs[i].bound, b.pairs[i].bound);
  }
}

std::vector<DisparityOptions> option_matrix() {
  std::vector<DisparityOptions> out;
  for (const DisparityMethod m :
       {DisparityMethod::kIndependent, DisparityMethod::kForkJoin}) {
    for (const HopBoundMethod h : {HopBoundMethod::kNonPreemptive,
                                   HopBoundMethod::kSchedulingAgnostic}) {
      DisparityOptions opt;
      opt.method = m;
      opt.hop_method = h;
      out.push_back(opt);
    }
  }
  return out;
}

TEST(EngineCache, RtaMatchesFreeFunction) {
  const TaskGraph g = diamond_graph();
  const AnalysisEngine engine(g);
  const RtaResult expected = analyze_response_times(g);
  EXPECT_EQ(engine.rta().response_time, expected.response_time);
  EXPECT_EQ(engine.rta().all_schedulable, expected.all_schedulable);
  EXPECT_EQ(engine.response_times(), expected.response_time);
  EXPECT_TRUE(engine.schedulable());
  // Arbitrarily many accesses run the fixpoint exactly once.
  (void)engine.rta();
  (void)engine.response_times();
  EXPECT_EQ(engine.metrics().counter("engine.rta.runs"), 1u);
}

TEST(EngineCache, HopAndChainBoundsMatchFreeFunctions) {
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/7);
  const ResponseTimeMap rtm = response_times_of(g);
  const AnalysisEngine engine(g);
  for (const HopBoundMethod h : {HopBoundMethod::kNonPreemptive,
                                 HopBoundMethod::kSchedulingAgnostic}) {
    for (const Edge& e : g.edges()) {
      EXPECT_EQ(hop_bound(engine.graph(), e.from, e.to,
                          engine.response_times(), h),
                hop_bound(g, e.from, e.to, rtm, h));
    }
    for (TaskId sink : g.sinks()) {
      for (const Path& chain : enumerate_source_chains(g, sink)) {
        const BackwardBounds expected = backward_bounds(g, chain, rtm, h);
        const BackwardBounds got = engine.chain_bounds(chain, h);
        EXPECT_EQ(got.wcbt, expected.wcbt);
        EXPECT_EQ(got.bcbt, expected.bcbt);
        // A repeated call returns the same value.
        const BackwardBounds again = engine.chain_bounds(chain, h);
        EXPECT_EQ(again.wcbt, expected.wcbt);
        EXPECT_EQ(again.bcbt, expected.bcbt);
      }
    }
  }
}

TEST(EngineCache, DisparityMatchesFreeFunctionAcrossOptionMatrix) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const TaskGraph g = random_dag_graph(14, 3, seed);
    const ResponseTimeMap rtm = response_times_of(g);
    const AnalysisEngine engine(g);
    for (const DisparityOptions& opt : option_matrix()) {
      for (const TaskId task : engine.fusing_tasks()) {
        const DisparityReport expected =
            analyze_time_disparity(g, task, rtm, opt);
        expect_reports_equal(engine.disparity(task, opt), expected);
        // Warm (memoized) call returns the identical report.
        expect_reports_equal(engine.disparity(task, opt), expected);
      }
    }
    EXPECT_GT(engine.metrics().counter("engine.reports.hits"), 0u);
  }
}

TEST(EngineCache, WarmCallEqualsFreshEngine) {
  const TaskGraph g = random_dag_graph(16, 4, /*seed=*/11);
  const AnalysisEngine warm(g);
  const std::vector<TaskId> tasks = warm.fusing_tasks();
  ASSERT_FALSE(tasks.empty());
  // Populate every cache layer.
  for (const TaskId t : tasks) (void)warm.disparity(t);
  for (const TaskId t : tasks) {
    const AnalysisEngine fresh(g);
    expect_reports_equal(warm.disparity(t), fresh.disparity(t));
  }
}

TEST(EngineCache, LatencyMatchesFreeFunctions) {
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/21);
  const ResponseTimeMap rtm = response_times_of(g);
  const AnalysisEngine engine(g);
  for (TaskId sink : g.sinks()) {
    for (const Path& chain : enumerate_source_chains(g, sink)) {
      for (const HopBoundMethod h : {HopBoundMethod::kNonPreemptive,
                                     HopBoundMethod::kSchedulingAgnostic}) {
        const LatencyReport r = engine.latency(chain, h);
        EXPECT_EQ(r.max_data_age, max_data_age_bound(g, chain, rtm, h));
        EXPECT_EQ(r.min_data_age, min_data_age_bound(g, chain, rtm));
        EXPECT_EQ(r.max_reaction_time,
                  max_reaction_time_bound(g, chain, rtm));
        const BackwardBounds b = backward_bounds(g, chain, rtm, h);
        EXPECT_EQ(r.backward.wcbt, b.wcbt);
        EXPECT_EQ(r.backward.bcbt, b.bcbt);
      }
    }
  }
}

TEST(EngineCache, BufferOptimizationMatchesFreeFunctions) {
  const TaskGraph g = diamond_graph();
  const ResponseTimeMap rtm = response_times_of(g);
  const AnalysisEngine engine(g);
  const TaskId sink = g.sinks().front();
  const std::vector<Path> chains = enumerate_source_chains(g, sink);
  ASSERT_GE(chains.size(), 2u);

  const BufferDesign expected_pair =
      design_buffer(g, chains[0], chains[1], rtm);
  const BufferDesign got_pair =
      engine.optimize_buffer_pair(chains[0], chains[1]);
  EXPECT_EQ(got_pair.buffer_on_lambda, expected_pair.buffer_on_lambda);
  EXPECT_EQ(got_pair.from, expected_pair.from);
  EXPECT_EQ(got_pair.to, expected_pair.to);
  EXPECT_EQ(got_pair.buffer_size, expected_pair.buffer_size);
  EXPECT_EQ(got_pair.shift, expected_pair.shift);
  EXPECT_EQ(got_pair.baseline_bound, expected_pair.baseline_bound);
  EXPECT_EQ(got_pair.optimized_bound, expected_pair.optimized_bound);

  // The multi-chain design is checked against the analyzer: its baseline
  // on the graph, its optimized bound on a copy with the design applied.
  for (const TaskGraph& mg : {g, random_dag_graph(12, 3, /*seed=*/7)}) {
    const AnalysisEngine me(mg);
    const TaskId t = mg.sinks().front();
    const MultiBufferDesign d = me.optimize_buffers(t);
    const ResponseTimeMap mrtm = response_times_of(mg);
    EXPECT_EQ(d.baseline_bound,
              analyze_time_disparity(mg, t, mrtm).worst_case);
    TaskGraph buffered = mg;
    apply_multi_buffer_design(buffered, d);
    EXPECT_EQ(d.optimized_bound,
              analyze_time_disparity(buffered, t, mrtm).worst_case);
  }
}

TEST(EngineCache, GraphIsImmutableOnceOwned) {
  TaskGraph g = diamond_graph();
  const AnalysisEngine engine(g);
  const TaskId sink = g.sinks().front();
  const DisparityReport before = engine.disparity(sink);

  // Mutating the caller's graph after construction must not affect the
  // engine: it owns a copy, not a reference.
  g.task(1).wcet = g.task(1).wcet + Duration::ms(5);
  g.task(1).period = g.task(1).period * 2;

  const DisparityReport after = engine.disparity(sink);
  expect_reports_equal(before, after);
  EXPECT_EQ(engine.graph().task(1).wcet, diamond_graph().task(1).wcet);
}

TEST(EngineCache, ValidatesGraphAtConstruction) {
  TaskGraph g = simple_chain_graph();
  g.task(1).period = Duration::zero();  // invalid: period must be positive
  EXPECT_THROW(AnalysisEngine{std::move(g)}, PreconditionError);
}

TEST(EngineCache, ExternalResponseTimeMode) {
  const TaskGraph g = diamond_graph();
  ResponseTimeMap rtm = response_times_of(g);
  const AnalysisEngine engine(g, rtm);

  EXPECT_EQ(engine.response_times(), rtm);
  EXPECT_TRUE(engine.schedulable());
  // No engine-owned RtaResult in this mode.
  EXPECT_THROW((void)engine.rta(), PreconditionError);
  EXPECT_EQ(engine.metrics().counter("engine.rta.runs"), 0u);

  // Analyses agree with the free functions on the adopted map.
  const TaskId sink = g.sinks().front();
  expect_reports_equal(engine.disparity(sink),
                       analyze_time_disparity(g, sink, rtm));

  // An infinite WCRT in the adopted map flags unschedulability.
  rtm.back() = Duration::max();
  const AnalysisEngine unsched(g, std::move(rtm));
  EXPECT_FALSE(unsched.schedulable());

  // Size-mismatched maps are rejected.
  EXPECT_THROW(AnalysisEngine(g, ResponseTimeMap(g.num_tasks() - 1)),
               PreconditionError);
}

TEST(EngineCache, ChainSetReferenceIsStableAndCapIsHonored) {
  const TaskGraph g = random_dag_graph(14, 3, /*seed=*/31);
  const AnalysisEngine engine(g);
  const TaskId sink = g.sinks().front();
  const std::vector<Path>& first = engine.chains(sink);
  EXPECT_EQ(first, enumerate_source_chains(g, sink));
  // Populate unrelated cache entries, then re-request: same address.
  for (TaskId id = 0; id < g.num_tasks(); ++id) (void)engine.chains(id);
  const std::vector<Path>& again = engine.chains(sink);
  EXPECT_EQ(&first, &again);
  // A cap below |P| fails loudly, exactly like the free enumeration.
  if (first.size() > 1) {
    EXPECT_THROW((void)engine.chains(sink, first.size() - 1), CapacityError);
  }
  EXPECT_THROW((void)engine.chains(static_cast<TaskId>(g.num_tasks())),
               PreconditionError);
}

TEST(EngineCache, MetricsCountEachDisparityCallOnce) {
  // The cache counters of metrics() follow the once-per-logical-lookup
  // contract at every point in a session.
  const TaskGraph g = random_dag_graph(14, 3, /*seed=*/17);
  const AnalysisEngine engine(g);

  const auto expect_reports = [&engine](std::uint64_t misses,
                                        std::uint64_t hits) {
    const obs::MetricsSnapshot m = engine.metrics();
    EXPECT_EQ(m.counter("engine.reports.misses"), misses);
    EXPECT_EQ(m.counter("engine.reports.hits"), hits);
  };

  expect_reports(0, 0);  // all zero before any analysis
  const std::vector<TaskId> fusing = engine.fusing_tasks();
  ASSERT_FALSE(fusing.empty());
  for (const TaskId t : fusing) (void)engine.disparity(t);
  expect_reports(fusing.size(), 0);  // cold pass: misses
  for (const TaskId t : fusing) (void)engine.disparity(t);
  expect_reports(fusing.size(), fusing.size());  // warm pass: hits

  // One RTA run, and compute-time histograms populated by the misses.
  const obs::MetricsSnapshot stats = engine.metrics();
  EXPECT_EQ(stats.counter("engine.rta.runs"), 1u);
  // disparity() counts one report lookup per call; its internal chain-set
  // read is uncounted feeder traffic (DESIGN.md §9, "counting contract"),
  // so that counter stays zero under disparity-only load.
  EXPECT_EQ(stats.counter("engine.chain_sets.misses"), 0u);
  EXPECT_EQ(stats.counter("engine.chain_sets.hits"), 0u);
  for (const auto& [name, hist] : stats.histograms) {
    if (name == "engine.rta.compute") {
      EXPECT_EQ(hist.count, 1u);
    }
    if (name == "engine.disparity.compute") {
      EXPECT_EQ(hist.count, stats.counter("engine.reports.misses"));
    }
  }
}

TEST(EngineCache, FusingTasksMatchesPathCounts) {
  const TaskGraph g = random_dag_graph(15, 3, /*seed=*/41);
  const AnalysisEngine engine(g);
  const std::vector<TaskId> fusing = engine.fusing_tasks();
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const bool expected = count_source_chains(g, id) >= 2;
    const bool got =
        std::find(fusing.begin(), fusing.end(), id) != fusing.end();
    EXPECT_EQ(got, expected) << "task " << id;
  }
  // The paper's disparity is a property of fusion tasks; the sink of these
  // generated graphs always fuses at least two chains.
  EXPECT_FALSE(fusing.empty());
}

}  // namespace
}  // namespace ceta
