// DAG dynamic-programming disparity backend (disparity/dag_dp.hpp):
// exactness against the enumerating kernel, relaxation contract, backend
// routing (free function and engine), huge-graph fixtures beyond any
// enumeration cap, the budget-driven global-mode restart, source-pair
// reporting and the test-only fault hook.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/dag_dp.hpp"
#include "disparity/pair_kernel.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta {
namespace {

using testing::diamond_graph;
using testing::diamond_ladder;
using testing::random_dag_graph;
using testing::random_two_chain_graph;
using testing::response_times_of;
using testing::simple_chain_graph;

std::vector<DisparityMethod> all_methods() {
  return {DisparityMethod::kIndependent, DisparityMethod::kForkJoin};
}
std::vector<JointTruncation> all_truncations() {
  return {JointTruncation::kAuto, JointTruncation::kAlways,
          JointTruncation::kNever};
}

DisparityOptions dp_options(DisparityMethod m, JointTruncation tr) {
  DisparityOptions opt;
  opt.method = m;
  opt.truncation = tr;
  opt.keep_pairs = KeepPairs::kWorstOnly;
  return opt;
}

std::string combo_str(DisparityMethod m, JointTruncation tr) {
  return std::string(m == DisparityMethod::kIndependent ? "P" : "S") +
         "-diff/trunc=" + std::to_string(static_cast<int>(tr));
}

// ---------------------------------------------------------------------------
// Hand-authored fixtures

/// Shared-source diamond with one LET branch and one buffered channel:
/// exercises the class-I → class-L currency switch and the FIFO shift
/// terms of the DP against the enumerating kernel.
TaskGraph let_diamond_graph() {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  auto mk = [](const char* name, EcuId ecu, int prio, CommSemantics comm) {
    Task t;
    t.name = name;
    t.wcet = Duration::ms(2);
    t.bcet = Duration::ms(1);
    t.period = Duration::ms(20);
    t.ecu = ecu;
    t.priority = prio;
    t.comm = comm;
    return t;
  };
  const TaskId a = g.add_task(mk("A", 0, 0, CommSemantics::kImplicit));
  const TaskId b = g.add_task(mk("B", 1, 0, CommSemantics::kLet));
  const TaskId c = g.add_task(mk("C", 2, 0, CommSemantics::kImplicit));
  g.add_edge(sid, a);
  g.add_edge(sid, b);
  g.add_edge(a, c, ChannelSpec{2});
  g.add_edge(b, c);
  g.validate();
  return g;
}

// ---------------------------------------------------------------------------
// Exactness against the enumerating kernel

TEST(DagDp, DiamondIndependentUntruncatedIsExact) {
  const TaskGraph g = diamond_graph();
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  const DisparityOptions opt =
      dp_options(DisparityMethod::kIndependent, JointTruncation::kNever);
  const DisparityReport dp = analyze_time_disparity_dag_dp(g, sink, rtm, opt);
  const DisparityReport ker = analyze_time_disparity_kernel(g, sink, rtm, opt);

  EXPECT_TRUE(dp.exact);
  EXPECT_EQ(dp.worst_case, ker.worst_case);
  // λ/ν of helpers.hpp: W = 42ms, B = 1ms, separation 41ms floored to
  // T(S) = 10ms.
  EXPECT_EQ(dp.worst_case, Duration::ms(40));
  EXPECT_EQ(dp.backend, DisparityBackend::kDagDp);
  EXPECT_TRUE(dp.truncated);
  EXPECT_TRUE(dp.chains.empty());
  EXPECT_TRUE(dp.pairs.empty());
  EXPECT_EQ(dp.chain_count, 2u);
  EXPECT_FALSE(dp.chain_count_saturated);
  // One source, two chains: the single worst pair is same-source.
  ASSERT_EQ(dp.source_pairs.size(), 1u);
  EXPECT_EQ(dp.source_pairs[0].source_a, dp.source_pairs[0].source_b);
  EXPECT_EQ(dp.source_pairs[0].bound, dp.worst_case);
}

TEST(DagDp, LetAndBufferedChannelsMatchKernel) {
  const TaskGraph g = let_diamond_graph();
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  const DisparityOptions opt =
      dp_options(DisparityMethod::kIndependent, JointTruncation::kNever);
  const DisparityReport dp = analyze_time_disparity_dag_dp(g, sink, rtm, opt);
  const DisparityReport ker = analyze_time_disparity_kernel(g, sink, rtm, opt);
  EXPECT_TRUE(dp.exact);
  EXPECT_EQ(dp.worst_case, ker.worst_case);
  EXPECT_EQ(dp.chain_count, 2u);
}

TEST(DagDp, JointFreeGraphIsExactAtEveryCombination) {
  // Two chains merging only at the sink: no task other than the sink lies
  // on two chains, so every method × truncation is served exactly.
  const TaskGraph g = random_two_chain_graph(4, 2, /*seed=*/7);
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  for (const DisparityMethod m : all_methods()) {
    for (const JointTruncation tr : all_truncations()) {
      const DisparityOptions opt = dp_options(m, tr);
      const DisparityReport dp =
          analyze_time_disparity_dag_dp(g, sink, rtm, opt);
      const DisparityReport ker =
          analyze_time_disparity_kernel(g, sink, rtm, opt);
      EXPECT_TRUE(dp.exact) << combo_str(m, tr);
      EXPECT_EQ(dp.worst_case, ker.worst_case) << combo_str(m, tr);
    }
  }
}

TEST(DagDp, RandomGraphsMatchKernelOrRelaxationContract) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const TaskGraph g = random_dag_graph(9, 3, seed);
    const TaskId sink = g.sinks().front();
    const ResponseTimeMap rtm = response_times_of(g);
    const DisparityReport relax = analyze_time_disparity_kernel(
        g, sink, rtm,
        dp_options(DisparityMethod::kIndependent, JointTruncation::kNever));
    for (const DisparityMethod m : all_methods()) {
      for (const JointTruncation tr : all_truncations()) {
        const DisparityOptions opt = dp_options(m, tr);
        const DisparityReport dp =
            analyze_time_disparity_dag_dp(g, sink, rtm, opt);
        const std::string what =
            "seed " + std::to_string(seed) + " " + combo_str(m, tr);
        if (dp.exact) {
          const DisparityReport ker =
              analyze_time_disparity_kernel(g, sink, rtm, opt);
          EXPECT_EQ(dp.worst_case, ker.worst_case) << what;
        } else {
          // Relaxed queries answer the kIndependent + kNever semantics.
          EXPECT_EQ(dp.worst_case, relax.worst_case) << what;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Huge-graph fixtures: beyond any enumeration cap, no CapacityError

TEST(DagDp, TenThousandTaskLadderCompletesWithoutCapacityError) {
  // 1 + 3·3333 = 10000 tasks, 2^3333 source chains: enumeration is
  // impossible at any cap, and even the chain count saturates size_t.
  const TaskGraph g = diamond_ladder(3333);
  ASSERT_EQ(g.num_tasks(), 10000u);
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);

  const ChainCount cc = count_source_chains_checked(g, sink);
  EXPECT_TRUE(cc.saturated);
  EXPECT_TRUE(cc.exceeds(kDefaultPathCap));

  const DisparityOptions opt =
      dp_options(DisparityMethod::kIndependent, JointTruncation::kNever);
  const DisparityReport dp = analyze_time_disparity_dag_dp(g, sink, rtm, opt);
  EXPECT_TRUE(dp.exact);
  EXPECT_TRUE(dp.truncated);
  EXPECT_TRUE(dp.chain_count_saturated);
  EXPECT_GT(dp.worst_case, Duration::zero());

  // kAuto degrades to the DP instead of throwing CapacityError.
  DisparityOptions auto_opt = opt;
  auto_opt.backend = DisparityBackend::kAuto;
  const DisparityReport routed =
      analyze_time_disparity_backend(g, sink, rtm, auto_opt);
  EXPECT_EQ(routed.backend, DisparityBackend::kDagDp);
  EXPECT_EQ(routed.worst_case, dp.worst_case);
}

TEST(DagDp, SaturatedChainCountOnModestLadder) {
  // 2^70 > SIZE_MAX on 64-bit: saturation must be reported explicitly,
  // not wrapped.
  const TaskGraph g = diamond_ladder(70);
  const TaskId sink = g.sinks().front();
  const ChainCount cc = count_source_chains_checked(g, sink);
  EXPECT_TRUE(cc.saturated);
  EXPECT_TRUE(cc.exceeds(std::numeric_limits<std::size_t>::max() - 1));
}

// ---------------------------------------------------------------------------
// Backend routing (free function)

TEST(DagDp, BackendEnumerateMatchesKernelExactly) {
  const TaskGraph g = diamond_graph();
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  for (const DisparityMethod m : all_methods()) {
    for (const JointTruncation tr : all_truncations()) {
      DisparityOptions opt = dp_options(m, tr);
      opt.backend = DisparityBackend::kEnumerate;
      const DisparityReport r =
          analyze_time_disparity_backend(g, sink, rtm, opt);
      const DisparityReport ker =
          analyze_time_disparity_kernel(g, sink, rtm, opt);
      EXPECT_EQ(r.worst_case, ker.worst_case) << combo_str(m, tr);
      EXPECT_EQ(r.backend, DisparityBackend::kEnumerate) << combo_str(m, tr);
      EXPECT_FALSE(r.truncated) << combo_str(m, tr);
    }
  }
}

TEST(DagDp, BackendDagDpFallsBackToExactEnumerationWhenRelaxed) {
  // The diamond is not joint-free, so S-diff with truncation is not
  // exactly representable by the DP; the kDagDp front door must fall back
  // to the kernel on this enumerable instance and say so.
  const TaskGraph g = diamond_graph();
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  DisparityOptions opt =
      dp_options(DisparityMethod::kForkJoin, JointTruncation::kAuto);
  opt.backend = DisparityBackend::kDagDp;
  const DisparityReport r = analyze_time_disparity_backend(g, sink, rtm, opt);
  const DisparityReport ker = analyze_time_disparity_kernel(g, sink, rtm, opt);
  EXPECT_EQ(r.backend, DisparityBackend::kEnumerate);
  EXPECT_TRUE(r.exact);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.worst_case, ker.worst_case);
  // Hand-computed Theorem 2 value of the diamond (helpers.hpp): 40ms.
  EXPECT_EQ(r.worst_case, Duration::ms(40));
}

TEST(DagDp, EngineCountsTheKernelFallbackLikeTheFreeFunction) {
  // The engine routes through the same router as the free front door, so
  // its kDagDp -> kernel fallback bumps disparity.dagdp.fallbacks too.
  const TaskGraph g = diamond_graph();
  const TaskId sink = g.sinks().front();
  DisparityOptions opt =
      dp_options(DisparityMethod::kForkJoin, JointTruncation::kAuto);
  opt.backend = DisparityBackend::kDagDp;
  const obs::Counter& fallbacks =
      obs::MetricsRegistry::global().counter("disparity.dagdp.fallbacks");
  const std::uint64_t before = fallbacks.value();
  const AnalysisEngine engine(g);
  const DisparityReport r = engine.disparity(sink, opt);
  EXPECT_EQ(r.backend, DisparityBackend::kEnumerate);
  EXPECT_EQ(r.worst_case, Duration::ms(40));
  EXPECT_EQ(fallbacks.value(), before + 1);
  (void)engine.disparity(sink, opt);  // cache hit: no second routing
  EXPECT_EQ(fallbacks.value(), before + 1);
}

TEST(DagDp, BackendAutoPrefersKernelOnSmallInstances) {
  const TaskGraph g = diamond_graph();
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  DisparityOptions opt =
      dp_options(DisparityMethod::kForkJoin, JointTruncation::kAuto);
  opt.backend = DisparityBackend::kAuto;
  const DisparityReport r = analyze_time_disparity_backend(g, sink, rtm, opt);
  EXPECT_EQ(r.backend, DisparityBackend::kEnumerate);
  EXPECT_FALSE(r.truncated);
}

// ---------------------------------------------------------------------------
// Budget-driven global-mode restart

TEST(DagDp, GlobalModeIsRelaxedButNeverBelowTheRelaxationTarget) {
  const TaskGraph g = random_dag_graph(9, 3, /*seed=*/3);
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  const DisparityOptions opt =
      dp_options(DisparityMethod::kIndependent, JointTruncation::kNever);
  DagDpOptions dpo;
  dpo.state_budget = 1;  // force the restart
  const DisparityReport dp =
      analyze_time_disparity_dag_dp(g, sink, rtm, opt, dpo);
  const DisparityReport ker = analyze_time_disparity_kernel(g, sink, rtm, opt);
  // Per-source flooring is lost, so exactness must not be claimed, and the
  // bound can only move up.
  EXPECT_FALSE(dp.exact);
  EXPECT_GE(dp.worst_case, ker.worst_case);
  // Global mode reports the single worst witness pair, normalized.
  ASSERT_EQ(dp.source_pairs.size(), 1u);
  EXPECT_LE(dp.source_pairs[0].source_a, dp.source_pairs[0].source_b);
  EXPECT_EQ(dp.source_pairs[0].bound, dp.worst_case);
}

// ---------------------------------------------------------------------------
// Source-pair reporting

TEST(DagDp, SourcePairsFollowKeepPairsContract) {
  const TaskGraph g = random_dag_graph(10, 3, /*seed=*/11);
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);

  DisparityOptions all_opt =
      dp_options(DisparityMethod::kIndependent, JointTruncation::kNever);
  all_opt.keep_pairs = KeepPairs::kAll;  // valid: backend stays kAuto
  const DisparityReport all =
      analyze_time_disparity_dag_dp(g, sink, rtm, all_opt);
  ASSERT_FALSE(all.source_pairs.empty());
  EXPECT_EQ(all.source_pairs.front().bound, all.worst_case);
  for (std::size_t i = 0; i + 1 < all.source_pairs.size(); ++i) {
    EXPECT_GE(all.source_pairs[i].bound, all.source_pairs[i + 1].bound)
        << "descending rank at " << i;
  }
  for (const SourcePairDisparity& p : all.source_pairs) {
    EXPECT_LE(p.source_a, p.source_b);
  }

  DisparityOptions top_opt = all_opt;
  top_opt.keep_pairs = KeepPairs::kTopK;
  top_opt.top_k = 2;
  const DisparityReport top =
      analyze_time_disparity_dag_dp(g, sink, rtm, top_opt);
  EXPECT_LE(top.source_pairs.size(), 2u);
  EXPECT_EQ(top.worst_case, all.worst_case);
  ASSERT_FALSE(top.source_pairs.empty());
  EXPECT_EQ(top.source_pairs.front().bound, top.worst_case);

  DisparityOptions worst_opt = all_opt;
  worst_opt.keep_pairs = KeepPairs::kWorstOnly;
  const DisparityReport worst =
      analyze_time_disparity_dag_dp(g, sink, rtm, worst_opt);
  ASSERT_EQ(worst.source_pairs.size(), 1u);
  EXPECT_EQ(worst.source_pairs[0].bound, worst.worst_case);

  // Beyond the scan cap only the single worst witness survives, with the
  // same bound.
  DagDpOptions dpo;
  dpo.source_pair_scan_cap = 0;
  const DisparityReport capped =
      analyze_time_disparity_dag_dp(g, sink, rtm, all_opt, dpo);
  ASSERT_EQ(capped.source_pairs.size(), 1u);
  EXPECT_EQ(capped.source_pairs[0].bound, capped.worst_case);
  EXPECT_EQ(capped.worst_case, all.worst_case);
}

TEST(DagDp, SingleChainSinkReportsZeroExactly) {
  const TaskGraph g = simple_chain_graph();
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  const DisparityReport dp = analyze_time_disparity_dag_dp(g, sink, rtm);
  EXPECT_TRUE(dp.exact);
  EXPECT_EQ(dp.worst_case, Duration::zero());
  EXPECT_EQ(dp.chain_count, 1u);
  EXPECT_TRUE(dp.source_pairs.empty());
}

// ---------------------------------------------------------------------------
// Option validation

TEST(DagDp, ValidateRejectsUnservableOptionTuples) {
  const TaskGraph g = diamond_graph();
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);

  DisparityOptions zero_k;
  zero_k.keep_pairs = KeepPairs::kTopK;
  zero_k.top_k = 0;
  EXPECT_THROW(analyze_time_disparity_dag_dp(g, sink, rtm, zero_k),
               InvalidOptionsError);
  EXPECT_THROW(analyze_time_disparity_backend(g, sink, rtm, zero_k),
               InvalidOptionsError);
  EXPECT_THROW(analyze_time_disparity_kernel(g, sink, rtm, zero_k),
               InvalidOptionsError);
  EXPECT_THROW(analyze_time_disparity(g, sink, rtm, zero_k),
               InvalidOptionsError);

  DisparityOptions dp_all;
  dp_all.backend = DisparityBackend::kDagDp;
  dp_all.keep_pairs = KeepPairs::kAll;
  EXPECT_THROW(analyze_time_disparity_backend(g, sink, rtm, dp_all),
               InvalidOptionsError);

  DisparityOptions no_cap;
  no_cap.path_cap = 0;
  EXPECT_THROW(analyze_time_disparity_backend(g, sink, rtm, no_cap),
               InvalidOptionsError);
}

// ---------------------------------------------------------------------------
// Fault hook

TEST(DagDp, FaultDropSourcePeriodDivergesFromKernel) {
  const TaskGraph g = diamond_graph();
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = response_times_of(g);
  const DisparityOptions opt =
      dp_options(DisparityMethod::kIndependent, JointTruncation::kNever);
  DagDpOptions dpo;
  dpo.fault_drop_source_period = true;
  const DisparityReport bad =
      analyze_time_disparity_dag_dp(g, sink, rtm, opt, dpo);
  const DisparityReport ker = analyze_time_disparity_kernel(g, sink, rtm, opt);
  // One source period (10ms) dropped from the 40ms bound.
  EXPECT_EQ(bad.worst_case, Duration::ms(30));
  EXPECT_NE(bad.worst_case, ker.worst_case);
}

// ---------------------------------------------------------------------------
// Engine routing and cache keying

TEST(DagDp, EngineRoutesBackendsAndKeysCacheEntriesSeparately) {
  const TaskGraph g = diamond_graph();
  AnalysisEngine e(g);
  const TaskId sink = g.sinks().front();

  DisparityOptions enum_opt =
      dp_options(DisparityMethod::kIndependent, JointTruncation::kNever);
  enum_opt.backend = DisparityBackend::kEnumerate;
  const DisparityReport ker = e.disparity(sink, enum_opt);
  EXPECT_EQ(ker.backend, DisparityBackend::kEnumerate);
  EXPECT_FALSE(ker.truncated);

  DisparityOptions dp_opt = enum_opt;
  dp_opt.backend = DisparityBackend::kDagDp;
  const DisparityReport dp = e.disparity(sink, dp_opt);
  EXPECT_EQ(dp.backend, DisparityBackend::kDagDp);
  EXPECT_TRUE(dp.truncated);
  EXPECT_TRUE(dp.exact);
  EXPECT_EQ(dp.worst_case, ker.worst_case);

  // Distinct backend ⇒ distinct cache entry: the enumerated report (with
  // its chain set) must survive the DP query.
  const DisparityReport again = e.disparity(sink, enum_opt);
  EXPECT_EQ(again.backend, DisparityBackend::kEnumerate);
  EXPECT_FALSE(again.chains.empty());
}

TEST(DagDp, EngineAutoDegradesToDpInsteadOfCapacityError) {
  const TaskGraph g = diamond_graph();
  AnalysisEngine e(g);
  const TaskId sink = g.sinks().front();
  DisparityOptions opt =
      dp_options(DisparityMethod::kIndependent, JointTruncation::kNever);
  opt.path_cap = 1;  // the diamond's 2 chains exceed it
  const DisparityReport r = e.disparity(sink, opt);
  EXPECT_EQ(r.backend, DisparityBackend::kDagDp);
  EXPECT_TRUE(r.truncated);
  const ResponseTimeMap rtm = response_times_of(g);
  const DisparityReport free_dp =
      analyze_time_disparity_dag_dp(g, sink, rtm, opt);
  EXPECT_EQ(r.worst_case, free_dp.worst_case);
}

TEST(DagDp, EngineMatchesFreeBackendFunctionOnRandomGraphs) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    const TaskGraph g = random_dag_graph(8, 3, seed);
    AnalysisEngine e(g);
    const TaskId sink = g.sinks().front();
    const ResponseTimeMap rtm = response_times_of(g);
    for (const DisparityBackend b :
         {DisparityBackend::kAuto, DisparityBackend::kEnumerate,
          DisparityBackend::kDagDp}) {
      DisparityOptions opt =
          dp_options(DisparityMethod::kForkJoin, JointTruncation::kAuto);
      opt.backend = b;
      const DisparityReport eng = e.disparity(sink, opt);
      const DisparityReport direct =
          analyze_time_disparity_backend(g, sink, rtm, opt);
      const std::string what = "seed " + std::to_string(seed) + " backend " +
                               std::to_string(static_cast<int>(b));
      EXPECT_EQ(eng.worst_case, direct.worst_case) << what;
      EXPECT_EQ(eng.backend, direct.backend) << what;
      EXPECT_EQ(eng.exact, direct.exact) << what;
      EXPECT_EQ(eng.truncated, direct.truncated) << what;
      EXPECT_EQ(eng.chain_count, direct.chain_count) << what;
    }
  }
}

}  // namespace
}  // namespace ceta
