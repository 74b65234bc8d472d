// The mutation API and its fine-grained invalidation (DESIGN.md §9).
//
// Three layers of evidence, mirroring the §9 contract:
//  1. Per-mutation-kind tests assert each matrix row *cell-wise* (RTA,
//     chain sets, reports) through the engine's cache counters: entries
//     the row marks "kept" must be served as hits after the commit
//     (survived_hits), entries it marks "invalidated" must show up as
//     stale evictions.
//  2. A 100-seed random-edit sweep checks that a mutated engine stays
//     field-identical to a freshly constructed engine after every edit.
//  3. The design-space loops (multi-buffer design, Pareto, sensitivity,
//     offset synthesis) must agree with the analyzers run on an explicitly
//     edited copy of the graph, and restore the engine's graph.

#include "engine/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>


#include "common/error.hpp"
#include "common/rng.hpp"
#include "disparity/exact.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/algorithms.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "verify/property_checker.hpp"

namespace ceta {
namespace {

using ceta::testing::diamond_graph;
using ceta::testing::random_dag_graph;
using ceta::testing::response_times_of;

/// Two disjoint-ECU chains merging at a third-ECU sink:
///   s1 -> a1 -> a2 -> f      (a* on ECU 0)
///   s2 -> b1 -> b2 -> f      (b* on ECU 1, f on ECU 2)
/// The ECU separation makes the §9 "cohort" scoping observable: an edit
/// on the a-side must leave every b-side artifact untouched.
TaskGraph two_ecu_chains() {
  TaskGraph g;
  auto src = [&](const char* name, int ms) {
    Task t;
    t.name = name;
    t.period = Duration::ms(ms);
    return g.add_task(t);
  };
  auto tsk = [&](const char* name, int ms, EcuId ecu, int prio) {
    Task t;
    t.name = name;
    t.wcet = Duration::ms(1);
    t.bcet = Duration::us(500);
    t.period = Duration::ms(ms);
    t.ecu = ecu;
    t.priority = prio;
    return g.add_task(t);
  };
  const TaskId s1 = src("s1", 10);
  const TaskId s2 = src("s2", 20);
  const TaskId a1 = tsk("a1", 10, 0, 0);
  const TaskId a2 = tsk("a2", 10, 0, 1);
  const TaskId b1 = tsk("b1", 20, 1, 0);
  const TaskId b2 = tsk("b2", 20, 1, 1);
  const TaskId f = tsk("f", 20, 2, 0);
  g.add_edge(s1, a1);
  g.add_edge(a1, a2);
  g.add_edge(a2, f);
  g.add_edge(s2, b1);
  g.add_edge(b1, b2);
  g.add_edge(b2, f);
  g.validate();
  return g;
}

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

void expect_graphs_equal(const TaskGraph& a, const TaskGraph& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (TaskId id = 0; id < a.num_tasks(); ++id) {
    EXPECT_EQ(a.task(id).period, b.task(id).period) << "task " << id;
    EXPECT_EQ(a.task(id).wcet, b.task(id).wcet) << "task " << id;
    EXPECT_EQ(a.task(id).bcet, b.task(id).bcet) << "task " << id;
    EXPECT_EQ(a.task(id).offset, b.task(id).offset) << "task " << id;
    EXPECT_EQ(a.task(id).priority, b.task(id).priority) << "task " << id;
  }
  ASSERT_EQ(a.edges().size(), b.edges().size());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].from, b.edges()[i].from);
    EXPECT_EQ(a.edges()[i].to, b.edges()[i].to);
    EXPECT_EQ(a.edges()[i].channel.buffer_size,
              b.edges()[i].channel.buffer_size);
  }
}

/// Field-wise comparison of a (mutated) engine against a fresh engine on
/// the same graph — the incremental ≡ fresh contract.
void expect_matches_fresh(const AnalysisEngine& e, TaskId task) {
  const AnalysisEngine fresh(e.graph());
  EXPECT_EQ(e.response_times(), fresh.response_times());
  for (const Path& c : fresh.chains(task)) {
    const BackwardBounds be = e.chain_bounds(c);
    const BackwardBounds bf = fresh.chain_bounds(c);
    EXPECT_EQ(be.wcbt, bf.wcbt);
    EXPECT_EQ(be.bcbt, bf.bcbt);
  }
  EXPECT_EQ(e.chains(task), fresh.chains(task));
  for (const DisparityMethod m :
       {DisparityMethod::kIndependent, DisparityMethod::kForkJoin}) {
    DisparityOptions opt;
    opt.method = m;
    expect_reports_equal(e.disparity(task, opt), fresh.disparity(task, opt));
  }
}

/// Warm every cache layer for `task`.
void warm(const AnalysisEngine& e, TaskId task) {
  (void)e.rta();
  (void)e.chains(task);
  (void)e.disparity(task);
}

const Path& chain_with_front(const std::vector<Path>& chains, TaskId front) {
  for (const Path& c : chains) {
    if (c.front() == front) return c;
  }
  ADD_FAILURE() << "no chain with front " << front;
  return chains.front();
}

// ---- per-mutation-kind invalidation (§9 matrix rows) -----------------------

TEST(EngineIncremental, BufferResizeInvalidatesOnlyTraversingChains) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  warm(e, f);
  const std::vector<Path> chains = e.chains(f);
  const Path chain_a = chain_with_front(chains, 0);  // s1 -> a1 -> a2 -> f
  const Path chain_b = chain_with_front(chains, 1);  // s2 -> b1 -> b2 -> f
  const BackwardBounds ba0 = e.chain_bounds(chain_a);
  const BackwardBounds bb0 = e.chain_bounds(chain_b);

  const obs::MetricsSnapshot before = e.metrics();
  e.set_buffer(chain_a[0], chain_a[1], 3);

  // §9 row "buffer", column RTA: kept — no refresh, no rerun.
  (void)e.response_times();
  EXPECT_EQ(e.metrics().counter("engine.rta.runs"), 1u);
  EXPECT_EQ(e.metrics().counter("engine.rta.refreshed_tasks"), 0u);

  // Column chain sets: kept (the enumeration ignores channel depths); the
  // entry predates the commit and is served as a survivor.
  (void)e.chains(f);
  EXPECT_EQ(e.metrics().counter("engine.chain_sets.stale"),
            before.counter("engine.chain_sets.stale"));
  EXPECT_EQ(e.metrics().counter("engine.chain_sets.hits"),
            before.counter("engine.chain_sets.hits") + 1);
  EXPECT_GT(e.metrics().counter("engine.cache.survived_hits"),
            before.counter("engine.cache.survived_hits"));

  // Column disparity reports: invalidated downstream of the edge.
  (void)e.disparity(f);
  EXPECT_EQ(e.metrics().counter("engine.reports.stale"),
            before.counter("engine.reports.stale") + 1);

  // The recomputed values equal a fresh engine's, and the resize is the
  // Lemma 6 shift: the buffered chain's window moved by 2·T(s1), the other
  // did not move.
  expect_matches_fresh(e, f);
  const Duration shift = g.task(chain_a[0]).period * 2;
  EXPECT_EQ(e.chain_bounds(chain_a).wcbt, ba0.wcbt + shift);
  EXPECT_EQ(e.chain_bounds(chain_a).bcbt, ba0.bcbt + shift);
  EXPECT_EQ(e.chain_bounds(chain_b).wcbt, bb0.wcbt);
  EXPECT_EQ(e.chain_bounds(chain_b).bcbt, bb0.bcbt);
}

TEST(EngineIncremental, WcetEditInvalidatesEcuCohortOnly) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  warm(e, f);
  const std::vector<Path> chains = e.chains(f);
  const TaskId a1 = chain_with_front(chains, 0)[1];

  const obs::MetricsSnapshot before = e.metrics();
  e.set_wcet_range(a1, Duration::us(200), Duration::us(500));

  // §9 row "WCET", column RTA: scoped refresh of a1's ECU cohort {a1, a2}
  // only — not a full rerun, and the b-side/f entries are untouched.
  (void)e.response_times();
  EXPECT_EQ(e.metrics().counter("engine.rta.runs"), 1u);
  EXPECT_EQ(e.metrics().counter("engine.rta.refreshed_tasks"), 2u);

  // Column chain sets: kept — WCET edits cannot change the topology.
  (void)e.chains(f);
  EXPECT_EQ(e.metrics().counter("engine.chain_sets.stale"),
            before.counter("engine.chain_sets.stale"));

  // Column disparity reports: invalidated downstream of the cohort.
  (void)e.disparity(f);
  EXPECT_EQ(e.metrics().counter("engine.reports.stale"),
            before.counter("engine.reports.stale") + 1);

  expect_matches_fresh(e, f);
}

TEST(EngineIncremental, PeriodEditAlsoInvalidatesChainSets) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  warm(e, f);
  const std::vector<Path> chains = e.chains(f);
  const TaskId s1 = chain_with_front(chains, 0).front();

  const obs::MetricsSnapshot before = e.metrics();
  e.set_period(s1, Duration::ms(20));  // s1: 10ms -> 20ms

  // §9 row "period": chain sets downstream of the task are invalidated
  // (period changes can alter enumeration pruning in general), and so are
  // the reports downstream of its cohort.
  (void)e.chains(f);
  EXPECT_EQ(e.metrics().counter("engine.chain_sets.stale"),
            before.counter("engine.chain_sets.stale") + 1);
  (void)e.disparity(f);
  EXPECT_EQ(e.metrics().counter("engine.reports.stale"),
            before.counter("engine.reports.stale") + 1);

  expect_matches_fresh(e, f);
}

TEST(EngineIncremental, PolicyEditInvalidatesEcuCohortOnly) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  warm(e, f);

  const obs::MetricsSnapshot before = e.metrics();
  e.set_policy(0, SchedPolicy::kPreemptive);  // flips a1/a2's ECU only
  EXPECT_EQ(e.graph().policy(0), SchedPolicy::kPreemptive);
  EXPECT_EQ(e.graph().policy(1), SchedPolicy::kNonPreemptive);

  // §9 row "policy", column RTA: scoped refresh of the ECU's cohort
  // {a1, a2} only — not a full rerun; b-side and f entries untouched.
  (void)e.response_times();
  EXPECT_EQ(e.metrics().counter("engine.rta.runs"), 1u);
  EXPECT_EQ(e.metrics().counter("engine.rta.refreshed_tasks"), 2u);

  // Column chain sets: kept — dispatching cannot change the topology; the
  // entry predates the commit and is served as a survivor.
  (void)e.chains(f);
  EXPECT_EQ(e.metrics().counter("engine.chain_sets.stale"),
            before.counter("engine.chain_sets.stale"));
  EXPECT_GT(e.metrics().counter("engine.cache.survived_hits"),
            before.counter("engine.cache.survived_hits"));

  // Column disparity reports: invalidated downstream of the cohort.
  (void)e.disparity(f);
  EXPECT_EQ(e.metrics().counter("engine.reports.stale"),
            before.counter("engine.reports.stale") + 1);

  expect_matches_fresh(e, f);
}

TEST(EngineIncremental, MixedPolicyEditsStayFreshEquivalent) {
  // Drive one ECU through all three disciplines (direct setter and
  // batched transaction) and check the engine stays field-identical to a
  // fresh engine at every step — the §9 contract under the policy row.
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  warm(e, f);

  e.set_policy(0, SchedPolicy::kEdf);
  expect_matches_fresh(e, f);

  AnalysisEngine::Transaction txn(e);
  txn.set_policy(0, SchedPolicy::kPreemptive)
      .set_policy(1, SchedPolicy::kEdf);
  txn.commit();
  EXPECT_EQ(e.graph().policy(0), SchedPolicy::kPreemptive);
  EXPECT_EQ(e.graph().policy(1), SchedPolicy::kEdf);
  expect_matches_fresh(e, f);

  // Restoring the default erases the override (canonical serialization).
  e.set_policy(0, SchedPolicy::kNonPreemptive);
  e.set_policy(1, SchedPolicy::kNonPreemptive);
  EXPECT_TRUE(e.graph().policies().empty());
  expect_matches_fresh(e, f);
}

TEST(EngineIncremental, OffsetEditInvalidatesNothing) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  warm(e, f);

  const obs::MetricsSnapshot before = e.metrics();
  e.set_offset(0, Duration::ms(5));

  // §9 row "offset": every column kept — offsets feed only the exact LET
  // oracle and the simulator, neither of which the engine caches.
  warm(e, f);
  const obs::MetricsSnapshot after = e.metrics();
  EXPECT_EQ(after.counter("engine.mutate.commits"),
            before.counter("engine.mutate.commits") + 1);
  EXPECT_EQ(after.counter("engine.chain_sets.stale"),
            before.counter("engine.chain_sets.stale"));
  EXPECT_EQ(after.counter("engine.reports.stale"),
            before.counter("engine.reports.stale"));
  EXPECT_EQ(after.counter("engine.rta.refreshed_tasks"),
            before.counter("engine.rta.refreshed_tasks"));
  EXPECT_EQ(e.graph().task(0).offset, Duration::ms(5));
  expect_matches_fresh(e, f);
}

TEST(EngineIncremental, EdgeEditsRebuildScopedRegion) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  warm(e, f);
  // §9 row "add edge": chain sets + reports downstream of `to` rebuild;
  // the RTA survives.
  const obs::MetricsSnapshot before = e.metrics();
  e.add_edge(0, f);  // new chain s1 -> f
  EXPECT_EQ(e.chains(f), enumerate_source_chains(e.graph(), f));
  EXPECT_EQ(e.chains(f).size(), 3u);
  EXPECT_EQ(e.metrics().counter("engine.chain_sets.stale"),
            before.counter("engine.chain_sets.stale") + 1);
  (void)e.disparity(f);
  EXPECT_EQ(e.metrics().counter("engine.reports.stale"),
            before.counter("engine.reports.stale") + 1);
  EXPECT_EQ(e.metrics().counter("engine.rta.refreshed_tasks"), 0u);
  expect_matches_fresh(e, f);

  // §9 row "remove edge": the closure is taken on the *pre-commit* graph
  // (removal destroys reachability), restoring the original chain set.
  e.remove_edge(0, f);
  EXPECT_EQ(e.chains(f), enumerate_source_chains(e.graph(), f));
  EXPECT_EQ(e.chains(f).size(), 2u);
  expect_matches_fresh(e, f);
}

// ---- incremental ≡ fresh under random edit sequences -----------------------

TEST(EngineIncremental, RandomEditSweepMatchesFreshOver100Seeds) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const TaskGraph g = random_dag_graph(10, 3, seed);
    const TaskId sink = g.sinks().front();
    AnalysisEngine e{TaskGraph{g}};
    warm(e, sink);
    Rng rng(seed * 7919);
    for (int edit = 0; edit < 5; ++edit) {
      switch (rng.uniform_int(0, 3)) {
        case 0: {  // FIFO resize on a random edge
          const auto& edges = e.graph().edges();
          const Edge& edge = edges[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(edges.size()) - 1))];
          e.set_buffer(edge.from, edge.to,
                       static_cast<int>(rng.uniform_int(1, 3)));
          break;
        }
        case 1: {  // WCET decrease on a random non-source task
          const TaskId t = static_cast<TaskId>(rng.uniform_int(
              0, static_cast<std::int64_t>(e.graph().num_tasks()) - 1));
          if (e.graph().is_source(t)) continue;
          const Task& task = e.graph().task(t);
          const Duration w = task.bcet + (task.wcet - task.bcet) / 2;
          e.set_wcet_range(t, task.bcet, w);
          break;
        }
        case 2: {  // period doubling on a random source
          const auto sources = e.graph().sources();
          const TaskId s = sources[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(sources.size()) - 1))];
          e.set_period(s, e.graph().task(s).period * 2);
          break;
        }
        default: {  // offset nudge on a random source
          const auto sources = e.graph().sources();
          const TaskId s = sources[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(sources.size()) - 1))];
          e.set_offset(s, e.graph().task(s).period / 2);
          break;
        }
      }
      expect_matches_fresh(e, sink);
      if (::testing::Test::HasFailure()) {
        FAIL() << "divergence at seed " << seed << ", edit " << edit;
      }
    }
  }
}

// ---- design-space loops vs the analyzers on edited copies -----------------

/// The misaligned LET fixture of test_offset_opt.cpp: sink 4, every
/// closure task offset-tunable.
TaskGraph misaligned_let() {
  TaskGraph g;
  Task s1;
  s1.name = "S1";
  s1.period = Duration::ms(10);
  const TaskId s1id = g.add_task(s1);
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ms(20);
  s2.offset = Duration::ms(5);
  const TaskId s2id = g.add_task(s2);
  auto mk = [](const char* name, Duration period, EcuId ecu, int prio) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = period;
    t.ecu = ecu;
    t.priority = prio;
    t.comm = CommSemantics::kLet;
    return t;
  };
  const TaskId a = g.add_task(mk("A", Duration::ms(10), 0, 0));
  const TaskId b = g.add_task(mk("B", Duration::ms(20), 0, 1));
  const TaskId f = g.add_task(mk("F", Duration::ms(20), 1, 0));
  g.add_edge(s1id, a);
  g.add_edge(s2id, b);
  g.add_edge(a, f);
  g.add_edge(b, f);
  g.validate();
  return g;
}

TEST(EngineIncremental, MultiBufferDesignMatchesAnalyzerOnEditedCopy) {
  int designs_with_channels = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskGraph g = ceta::testing::random_two_chain_graph(5, 2, seed);
    const ResponseTimeMap rtm = response_times_of(g);
    const TaskId sink = g.sinks().front();
    const AnalysisEngine e{TaskGraph{g}};
    const MultiBufferDesign d = e.optimize_buffers(sink);

    EXPECT_EQ(d.baseline_bound, analyze_time_disparity(g, sink, rtm).worst_case)
        << "seed " << seed;
    TaskGraph buffered = g;
    for (const ChannelBuffer& cb : d.channels) {
      EXPECT_GT(cb.buffer_size, 1);
      EXPECT_EQ(cb.shift, g.task(cb.from).period * (cb.buffer_size - 1));
      buffered.set_buffer_size(cb.from, cb.to, cb.buffer_size);
    }
    EXPECT_EQ(d.optimized_bound,
              analyze_time_disparity(buffered, sink, rtm).worst_case)
        << "seed " << seed;
    if (!d.channels.empty()) {
      ++designs_with_channels;
      EXPECT_LT(d.optimized_bound, d.baseline_bound) << "seed " << seed;
    }
    expect_graphs_equal(e.graph(), g);
  }
  EXPECT_GT(designs_with_channels, 0);  // the buffered probe was exercised
}

TEST(EngineIncremental, OptimizeBuffersRejectsDpServedSink) {
  // Above path_cap, kAuto serves the sink from the DAG DP, whose report
  // carries no chains.  The design must refuse loudly rather than return
  // an empty "nothing to gain" design — on a fresh engine and on one whose
  // report cache already holds the DP-served report.
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/7);
  const TaskId sink = g.sinks().front();
  const std::size_t count = count_source_chains(g, sink);
  ASSERT_GE(count, 3u);
  DisparityOptions capped;
  capped.path_cap = count - 1;

  const AnalysisEngine fresh{TaskGraph{g}};
  EXPECT_THROW((void)fresh.optimize_buffers(sink, capped), CapacityError);

  const AnalysisEngine warm{TaskGraph{g}};
  ASSERT_TRUE(warm.disparity(sink, capped).truncated);
  EXPECT_THROW((void)warm.optimize_buffers(sink, capped), CapacityError);

  // At a cap that admits every chain, the design runs normally.
  DisparityOptions admitted;
  admitted.path_cap = count;
  EXPECT_NO_THROW((void)warm.optimize_buffers(sink, admitted));
}

TEST(EngineIncremental, OptimizeBuffersReadsTheCachedReport) {
  // The design's baseline is the memoized disparity report: after a
  // disparity() query it costs one report hit and no recomputation.
  const TaskGraph g = ceta::testing::random_two_chain_graph(5, 2, /*seed=*/3);
  const TaskId sink = g.sinks().front();
  const AnalysisEngine e{TaskGraph{g}};
  (void)e.disparity(sink);
  const obs::MetricsSnapshot before = e.metrics();
  (void)e.optimize_buffers(sink);
  const obs::MetricsSnapshot after = e.metrics();
  EXPECT_EQ(after.counter("engine.reports.hits"),
            before.counter("engine.reports.hits") + 1);
  EXPECT_EQ(after.counter("engine.reports.misses"),
            before.counter("engine.reports.misses"));
}

TEST(EngineIncremental, ParetoPointsMatchPairBoundOnEditedCopy) {
  std::size_t longest = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskGraph g = ceta::testing::random_two_chain_graph(6, 3, seed);
    const ResponseTimeMap rtm = response_times_of(g);
    const TaskId sink = g.sinks().front();
    const std::vector<Path> chains = enumerate_source_chains(g, sink);
    ASSERT_GE(chains.size(), 2u);
    AnalysisEngine e{TaskGraph{g}};

    const std::vector<ParetoPoint> points =
        buffer_pareto(e, chains[0], chains[1]);
    const BufferDesign d = design_buffer(g, chains[0], chains[1], rtm);
    ASSERT_EQ(points.size(), static_cast<std::size_t>(d.buffer_size));
    longest = std::max(longest, points.size());
    for (const ParetoPoint& p : points) {
      EXPECT_EQ(p.shift, g.task(d.from).period * (p.buffer_size - 1));
      Duration expected = d.baseline_bound;
      if (p.buffer_size > 1) {
        TaskGraph copy = g;
        copy.set_buffer_size(d.from, d.to, p.buffer_size);
        expected =
            std::min(d.baseline_bound - p.shift,
                     sdiff_pair_bound(copy, chains[0], chains[1], rtm).bound);
      }
      EXPECT_EQ(p.bound, expected)
          << "seed " << seed << ", size " << p.buffer_size;
    }
    expect_graphs_equal(e.graph(), g);
  }
  EXPECT_GE(longest, 3u);  // intermediate sizes were exercised
}

TEST(EngineIncremental, SensitivityEntriesMatchFreshAnalysisOnPerturbedCopy) {
  const TaskGraph g = random_dag_graph(10, 3, /*seed=*/5);
  const TaskId sink = g.sinks().front();
  const std::vector<TaskId> closure = ancestors(g, sink);
  const SensitivityOptions opt;
  AnalysisEngine e{TaskGraph{g}};
  const std::vector<SensitivityEntry> entries = disparity_sensitivity(e, sink);
  ASSERT_FALSE(entries.empty());

  const auto scaled = [](Duration d, double factor) {
    return Duration::ns(static_cast<std::int64_t>(
        std::llround(static_cast<double>(d.count()) * factor)));
  };
  const Duration baseline =
      analyze_time_disparity(g, sink, response_times_of(g)).worst_case;
  for (const SensitivityEntry& entry : entries) {
    EXPECT_EQ(entry.baseline, baseline);
    TaskGraph copy = g;
    Task& t = copy.task(entry.task);
    if (entry.param == PerturbedParam::kPeriod) {
      t.period = scaled(t.period, opt.period_factor);
    } else {
      t.wcet = scaled(t.wcet, opt.wcet_factor);
      t.bcet = std::min(t.bcet, t.wcet);
    }
    const RtaResult rta = analyze_response_times(copy);
    const bool schedulable =
        std::all_of(closure.begin(), closure.end(),
                    [&](TaskId id) { return rta.schedulable[id]; });
    EXPECT_EQ(entry.schedulable, schedulable) << "task " << entry.task;
    const Duration expected =
        schedulable
            ? analyze_time_disparity(copy, sink, rta.response_time).worst_case
            : baseline;
    EXPECT_EQ(entry.perturbed, expected) << "task " << entry.task;
  }
  expect_graphs_equal(e.graph(), g);
}

TEST(EngineIncremental, OffsetPlanMatchesExactOracleOnEditedCopy) {
  const TaskGraph g = misaligned_let();
  const TaskId f = 4;
  AnalysisEngine e{TaskGraph{g}};
  const OffsetPlan plan = plan_source_offsets(e, f);

  EXPECT_EQ(plan.baseline, exact_let_disparity(g, f).worst_disparity);
  EXPECT_GT(plan.evaluations, 1u);
  TaskGraph tuned = g;
  apply_offset_plan(tuned, plan);
  for (const OffsetAssignment& a : plan.offsets) {
    EXPECT_GE(a.offset, Duration::zero());
    EXPECT_LT(a.offset, g.task(a.task).period);
  }
  EXPECT_EQ(plan.optimized, exact_let_disparity(tuned, f).worst_disparity);
  EXPECT_LT(plan.optimized, plan.baseline);
  expect_graphs_equal(e.graph(), g);
}

// ---- counting contract, transactions, modes --------------------------------

TEST(EngineIncremental, LookupsAreCountedOnceAtTheEntryLayer) {
  // Regression pin for the double-count fix: a disparity() query counts
  // exactly one report lookup; its internal chain-set read (feeding the
  // pair kernel) stays uncounted but still warms the cache.
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  (void)e.disparity(f);

  obs::MetricsSnapshot stats = e.metrics();
  EXPECT_EQ(stats.counter("engine.reports.misses"), 1u);
  EXPECT_EQ(stats.counter("engine.reports.hits"), 0u);
  EXPECT_EQ(stats.counter("engine.chain_sets.misses"), 0u);
  EXPECT_EQ(stats.counter("engine.chain_sets.hits"), 0u);

  // The cache WAS warmed by the uncounted traffic: a direct query is a
  // hit on its first counted lookup.
  (void)e.chains(f);
  stats = e.metrics();
  EXPECT_EQ(stats.counter("engine.chain_sets.hits"), 1u);
  EXPECT_EQ(stats.counter("engine.chain_sets.misses"), 0u);
}

TEST(EngineIncremental, TransactionBatchesOneCommit) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  warm(e, f);

  // A priority swap is only valid jointly — each half alone collides.
  const int pa = e.graph().task(2).priority;
  const int pb = e.graph().task(3).priority;
  AnalysisEngine::Transaction txn(e);
  txn.set_priority(2, pb).set_priority(3, pa);
  EXPECT_EQ(txn.size(), 2u);
  txn.commit();

  EXPECT_EQ(e.metrics().counter("engine.mutate.commits"), 1u);
  EXPECT_EQ(e.metrics().counter("engine.mutate.edits"), 2u);
  EXPECT_EQ(e.graph().task(2).priority, pb);
  EXPECT_EQ(e.graph().task(3).priority, pa);
  expect_matches_fresh(e, f);
}

TEST(EngineIncremental, RejectedCommitLeavesGraphAndCachesUntouched) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  const DisparityReport before = e.disparity(f);
  const obs::MetricsSnapshot stats_before = e.metrics();

  // Second edit invalidates the graph (zero period): the whole batch must
  // be rejected with the strong guarantee.
  AnalysisEngine::Transaction txn(e);
  txn.set_wcet_range(2, Duration::us(100), Duration::us(800))
      .set_period(0, Duration::zero());
  EXPECT_THROW(txn.commit(), PreconditionError);

  expect_graphs_equal(e.graph(), g);
  EXPECT_EQ(e.metrics().counter("engine.mutate.commits"),
            stats_before.counter("engine.mutate.commits"));
  // The cached report survived: re-query is a pure hit.
  expect_reports_equal(e.disparity(f), before);
  EXPECT_EQ(e.metrics().counter("engine.reports.hits"),
            stats_before.counter("engine.reports.hits") + 1);
  EXPECT_EQ(e.metrics().counter("engine.reports.stale"),
            stats_before.counter("engine.reports.stale"));
}

// Parameter-only batches are validated against the *final* batch state
// before anything is applied (the commit fast path skips the snapshot),
// so every rejection below must leave the graph byte-identical.
TEST(EngineIncremental, PrecheckedCommitRejectsInvalidFinalStates) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};

  // Priority collision within the ECU cohort (a1 p0, a2 p1 on ECU 0).
  EXPECT_THROW(e.set_priority(2, g.task(3).priority), PreconditionError);
  // Joint per-task invariant: offset must stay inside the final period.
  EXPECT_THROW(e.set_offset(2, Duration::ms(15)), PreconditionError);
  {
    AnalysisEngine::Transaction txn(e);
    txn.set_offset(2, Duration::ms(8)).set_period(2, Duration::ms(5));
    EXPECT_THROW(txn.commit(), PreconditionError);
  }
  // Buffer edits need an existing edge and a positive depth.
  EXPECT_THROW(e.set_buffer(0, 5, 2), PreconditionError);
  EXPECT_THROW(e.set_buffer(0, 2, 0), PreconditionError);
  EXPECT_THROW(e.set_period(99, Duration::ms(10)), PreconditionError);

  expect_graphs_equal(e.graph(), g);
  EXPECT_EQ(e.metrics().counter("engine.mutate.commits"), 0u);

  // A batched swap is judged on final priorities, so it still commits.
  AnalysisEngine::Transaction swap(e);
  swap.set_priority(2, g.task(3).priority).set_priority(3, g.task(2).priority);
  swap.commit();
  EXPECT_EQ(e.graph().task(2).priority, g.task(3).priority);
  EXPECT_EQ(e.graph().task(3).priority, g.task(2).priority);
}

TEST(EngineIncremental, ExternalRtmModeRejectsSchedulingEdits) {
  const TaskGraph g = two_ecu_chains();
  ResponseTimeMap rtm = response_times_of(g);
  AnalysisEngine e(TaskGraph{g}, std::move(rtm));

  // The adopted WCRT map cannot be refreshed: scheduling edits throw...
  EXPECT_THROW(e.set_period(0, Duration::ms(20)), PreconditionError);
  EXPECT_THROW(e.set_wcet_range(2, Duration::zero(), Duration::ms(1)),
               PreconditionError);
  EXPECT_THROW(e.set_priority(2, 7), PreconditionError);
  EXPECT_THROW(e.set_policy(0, SchedPolicy::kEdf), PreconditionError);

  // ...while buffer/offset/structural edits stay available and correct.
  const TaskId f = g.sinks().front();
  e.set_buffer(2, 3, 2);
  e.set_offset(0, Duration::ms(1));
  TaskGraph edited = g;
  edited.set_buffer_size(2, 3, 2);
  edited.task(0).offset = Duration::ms(1);
  const AnalysisEngine fresh(edited, response_times_of(edited));
  expect_reports_equal(e.disparity(f), fresh.disparity(f));
}

TEST(EngineIncremental, ChainSetReferenceSurvivesMutation) {
  const TaskGraph g = two_ecu_chains();
  AnalysisEngine e{TaskGraph{g}};
  const TaskId f = g.sinks().front();
  const std::vector<Path>& ref = e.chains(f);
  EXPECT_EQ(ref.size(), 2u);

  // A structural edit refreshes the set *in place*: the old reference
  // stays valid and observes the new contents.
  e.add_edge(0, f);
  const std::vector<Path>& again = e.chains(f);
  EXPECT_EQ(&ref, &again);
  EXPECT_EQ(again.size(), 3u);
  EXPECT_EQ(again, enumerate_source_chains(e.graph(), f));
}

// ---- the verify property and its fault injection ---------------------------

TEST(EngineIncremental, VerifyPropertyHoldsAndFaultIsCaught) {
  const TaskGraph g = two_ecu_chains();
  const TaskId f = g.sinks().front();
  verify::ProbeConfig cfg;
  EXPECT_FALSE(verify::check_property(
                   verify::Property::kIncrementalMatchesFresh, g, f, cfg)
                   .violated());

  // Skipping the report dirtying of a buffer resize must be caught at the
  // resize step (the stale report misses the Lemma 6 shift).
  cfg.fault = verify::FaultInjection::kSkipInvalidation;
  const verify::PropertyOutcome out = verify::check_property(
      verify::Property::kIncrementalMatchesFresh, g, f, cfg);
  EXPECT_TRUE(out.violated());
  EXPECT_NE(out.detail.find("buffer resize"), std::string::npos)
      << out.detail;
}

TEST(EngineIncremental, InjectedFaultViolationShrinks) {
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/7);
  const TaskId sink = g.sinks().front();
  ASSERT_GE(count_source_chains(g, sink), 2u);

  verify::PropertyChecker checker{verify::CheckerOptions{}};
  verify::CheckerReport report;
  verify::ProbeConfig cfg;
  cfg.fault = verify::FaultInjection::kSkipInvalidation;
  checker.check_instance(g, sink, cfg, report);

  ASSERT_FALSE(report.violations.empty());
  const verify::Violation& v = report.violations.front();
  EXPECT_EQ(v.property, verify::Property::kIncrementalMatchesFresh);
  EXPECT_EQ(v.original_tasks, g.num_tasks());
  EXPECT_LE(v.graph.num_tasks(), v.original_tasks);
  EXPECT_GT(v.shrink_rounds, 0u);
  // The shrunken graph still reproduces the violation.
  EXPECT_TRUE(verify::check_property(v.property, v.graph, v.task, cfg)
                  .violated());
}

// ---- rollback exception-safety ---------------------------------------------
//
// Every rollback path must (a) restore the pre-error state exactly and
// (b) rethrow the *original* exception — the diagnostic that names the
// actual problem — never a generic "mutation failed" that swallows it.

TEST(EngineIncremental, StructuralRollbackPreservesOriginalDiagnostic) {
  const TaskGraph g = two_ecu_chains();
  const TaskId f = g.sinks().front();
  const TaskId a1 = g.successors(g.sources().front()).front();
  AnalysisEngine e{TaskGraph{g}};
  const DisparityReport before = e.disparity(f);

  // add_edge(f, a1) closes the a-chain into a cycle: the batch applies
  // structurally, whole-graph validation rejects it, and the snapshot
  // rollback must rethrow the validator's own message.
  try {
    AnalysisEngine::Transaction txn(e);
    txn.set_period(a1, Duration::ms(7));  // valid edit, rolled back too
    txn.add_edge(f, a1);
    txn.commit();
    FAIL() << "expected the cycle to be rejected";
  } catch (const RollbackError& err) {
    FAIL() << "rollback itself failed: " << err.what();
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("cycle"), std::string::npos)
        << err.what();
  }

  // Strong guarantee: the valid edit of the batch is gone with the bad
  // one, and the engine still answers bit-identically to a fresh build.
  expect_graphs_equal(e.graph(), g);
  EXPECT_EQ(e.disparity(f).worst_case, before.worst_case);
  AnalysisEngine fresh{TaskGraph{g}};
  EXPECT_EQ(e.disparity(f).worst_case, fresh.disparity(f).worst_case);
}

TEST(EngineIncremental, OffsetSweepFaultRestoresOffsetsAndMessage) {
  // Every closure task is offset-tunable, so the sweep is several
  // evaluations deep when the injected fault fires mid-pass.
  const TaskGraph g = misaligned_let();
  const TaskId f = 4;

  AnalysisEngine e{TaskGraph{g}};
  OffsetPlanOptions opt;
  opt.fault_fail_after_evaluations = 3;  // mid-sweep, offsets already moved
  try {
    plan_source_offsets(e, f, opt);
    FAIL() << "expected the injected fault";
  } catch (const RollbackError& err) {
    FAIL() << "offset restore failed: " << err.what();
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("injected offset-sweep fault"),
              std::string::npos)
        << err.what();
  }

  // The tentative sweep offsets were rolled back; the engine is as if the
  // plan was never attempted.
  expect_graphs_equal(e.graph(), g);
  const OffsetPlan clean = plan_source_offsets(e, f);
  EXPECT_EQ(clean.baseline, exact_let_disparity(g, f).worst_disparity);
  expect_graphs_equal(e.graph(), g);
}

TEST(EngineIncremental, PropertyNameRoundTrips) {
  EXPECT_STREQ(
      verify::property_name(verify::Property::kIncrementalMatchesFresh),
      "incremental_matches_fresh");
  EXPECT_EQ(verify::property_from_name("incremental_matches_fresh"),
            verify::Property::kIncrementalMatchesFresh);
}

}  // namespace
}  // namespace ceta
