// Pairwise kernel (disparity/pair_kernel.hpp): bit-identical equivalence
// with the reference analyzer, suffix-table exactness, and KeepPairs
// semantics.

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chain/backward_bounds.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/pair_kernel.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "sched/npfp_rta.hpp"
#include "verify/fixture.hpp"
#include "verify/property_checker.hpp"

namespace ceta {
namespace {

using testing::diamond_graph;
using testing::random_dag_graph;
using testing::random_two_chain_graph;
using testing::response_times_of;

// ---------------------------------------------------------------------------
// Shared helpers

std::vector<DisparityMethod> all_methods() {
  return {DisparityMethod::kIndependent, DisparityMethod::kForkJoin};
}
std::vector<JointTruncation> all_truncations() {
  return {JointTruncation::kAuto, JointTruncation::kAlways,
          JointTruncation::kNever};
}
std::vector<KeepPairs> all_keep_modes() {
  return {KeepPairs::kAll, KeepPairs::kWorstOnly, KeepPairs::kTopK};
}

void expect_reports_identical(const DisparityReport& ref,
                              const DisparityReport& ker,
                              const std::string& what) {
  EXPECT_EQ(ref.worst_case, ker.worst_case) << what;
  EXPECT_EQ(ref.chains, ker.chains) << what;
  ASSERT_EQ(ref.pairs.size(), ker.pairs.size()) << what;
  for (std::size_t i = 0; i < ref.pairs.size(); ++i) {
    EXPECT_EQ(ref.pairs[i].chain_a, ker.pairs[i].chain_a)
        << what << " pair " << i;
    EXPECT_EQ(ref.pairs[i].chain_b, ker.pairs[i].chain_b)
        << what << " pair " << i;
    EXPECT_EQ(ref.pairs[i].bound, ker.pairs[i].bound) << what << " pair " << i;
  }
}

/// Compare kernel vs reference at every method × truncation × keep mode.
void expect_kernel_matches_reference(const TaskGraph& g, TaskId task,
                                     const ResponseTimeMap& rtm,
                                     const std::string& what) {
  for (const DisparityMethod m : all_methods()) {
    for (const JointTruncation tr : all_truncations()) {
      for (const KeepPairs kp : all_keep_modes()) {
        DisparityOptions opt;
        opt.method = m;
        opt.truncation = tr;
        opt.keep_pairs = kp;
        opt.top_k = 3;
        const DisparityReport ref = analyze_time_disparity(g, task, rtm, opt);
        const DisparityReport ker =
            analyze_time_disparity_kernel(g, task, rtm, opt);
        std::ostringstream os;
        os << what << " method=" << static_cast<int>(m)
           << " trunc=" << static_cast<int>(tr)
           << " keep=" << static_cast<int>(kp);
        expect_reports_identical(ref, ker, os.str());
      }
    }
  }
}

/// A chain of `stages` diamonds hanging off one source: 2^stages source
/// chains through the sink, every pair sharing the source and the merge
/// tasks (dense joints; many pairs truncate to the same prefixes).
TaskGraph diamond_stack_graph(std::size_t stages) {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(20);
  TaskId prev = g.add_task(s);

  int prio[2] = {0, 0};
  auto mk = [&](const std::string& name, EcuId ecu) {
    Task t;
    t.name = name;
    t.wcet = Duration::us(200);
    t.bcet = Duration::us(100);
    t.period = Duration::ms(20);
    t.ecu = ecu;
    t.priority = prio[ecu]++;
    return g.add_task(t);
  };
  const TaskId f = mk("F", 0);
  g.add_edge(prev, f);
  prev = f;
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string n = std::to_string(i);
    const TaskId a = mk("A" + n, 0);
    const TaskId b = mk("B" + n, 1);
    const TaskId m = mk("M" + n, 1);
    g.add_edge(prev, a);
    g.add_edge(prev, b);
    g.add_edge(a, m);
    g.add_edge(b, m);
    prev = m;
  }
  g.validate();
  return g;
}

// ---------------------------------------------------------------------------
// SuffixBoundTable

TEST(SuffixBoundTable, MatchesBackwardBoundsOnEveryInfix) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const TaskGraph g = random_dag_graph(10, 3, seed);
    const ResponseTimeMap rtm = response_times_of(g);
    const TaskId sink = g.sinks().front();
    const std::vector<Path> chains = enumerate_source_chains(g, sink);
    for (const Path& chain : chains) {
      const ChainView view{chain.data(), chain.size()};
      const SuffixBoundTable table(g, view, rtm,
                                   HopBoundMethod::kNonPreemptive);
      for (std::size_t first = 0; first < chain.size(); ++first) {
        for (std::size_t last = first; last < chain.size(); ++last) {
          const Path sub(chain.begin() + static_cast<std::ptrdiff_t>(first),
                         chain.begin() + static_cast<std::ptrdiff_t>(last) + 1);
          const BackwardBounds want = backward_bounds(g, sub, rtm);
          const BackwardBounds got = table.bounds(first, last);
          EXPECT_EQ(want.wcbt, got.wcbt)
              << "seed " << seed << " [" << first << ", " << last << "]";
          EXPECT_EQ(want.bcbt, got.bcbt)
              << "seed " << seed << " [" << first << ", " << last << "]";
        }
      }
    }
  }
}

TEST(SuffixBoundTable, SingleTaskSubChainIsZero) {
  const TaskGraph g = diamond_graph();
  const ResponseTimeMap rtm = response_times_of(g);
  const Path chain = enumerate_source_chains(g, 4).front();
  const SuffixBoundTable table(g, ChainView{chain.data(), chain.size()}, rtm,
                               HopBoundMethod::kNonPreemptive);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(table.bounds(i, i).wcbt, Duration::zero());
    EXPECT_EQ(table.bounds(i, i).bcbt, Duration::zero());
  }
}

// ---------------------------------------------------------------------------
// Kernel ≡ reference

TEST(PairKernel, MatchesReferenceOnHandGraphs) {
  {
    const TaskGraph g = diamond_graph();
    expect_kernel_matches_reference(g, 4, response_times_of(g), "diamond");
  }
  {
    const TaskGraph g = diamond_stack_graph(3);
    expect_kernel_matches_reference(g, g.sinks().front(), response_times_of(g),
                                    "diamond stack");
  }
}

TEST(PairKernel, MatchesReferenceOnCommittedFixtures) {
  // Every pair_kernel fixture in tests/fixtures/ replays through the same
  // pure check_property() entry point a shrunken counterexample would use.
  const std::filesystem::path dir = CETA_TEST_FIXTURE_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".txt") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << entry.path();
    std::stringstream text;
    text << in.rdbuf();
    const verify::Fixture f = verify::fixture_from_text(text.str());
    verify::ProbeConfig cfg;
    cfg.sim_seed = f.sim_seed;
    const verify::PropertyOutcome out =
        verify::check_property(f.property, f.graph, verify::fixture_task(f),
                               cfg);
    EXPECT_EQ(out.status, verify::PropertyOutcome::Status::kHolds)
        << entry.path() << ": " << out.detail;
    ++checked;
  }
  EXPECT_GE(checked, 3u);
}

TEST(PairKernel, MatchesReferenceAcross100WatersGraphs) {
  // 100 seeded WATERS draws, each compared field-wise at every
  // DisparityMethod × JointTruncation × KeepPairs combination.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const TaskGraph g = seed % 2 == 0
                            ? random_dag_graph(6 + seed % 7, 3, seed)
                            : random_two_chain_graph(3 + seed % 4, 2, seed);
    const TaskId sink = g.sinks().front();
    expect_kernel_matches_reference(g, sink, response_times_of(g),
                                    "seed " + std::to_string(seed));
  }
}

TEST(PairKernel, MatchesReferenceOnDenseJoints) {
  // Pair shapes with many joints per pair, many pairs truncating to the
  // same prefixes, and shared tasks of the untruncated chains lying past
  // the truncation point, which the joint scan must never pick up.
  {
    const TaskGraph g = diamond_stack_graph(6);  // 64 chains
    const TaskId sink = g.sinks().front();
    ASSERT_EQ(enumerate_source_chains(g, sink).size(), 64u);
    expect_kernel_matches_reference(g, sink, response_times_of(g),
                                    "diamond stack 6");
  }
  std::size_t wide = 0;
  for (std::uint64_t seed = 1; seed <= 400 && wide < 20; ++seed) {
    const TaskGraph g = random_dag_graph(14 + seed % 7, 3, seed);
    const TaskId sink = g.sinks().front();
    const std::size_t k = count_source_chains(g, sink);
    if (k < 20 || k > 120) continue;
    expect_kernel_matches_reference(g, sink, response_times_of(g),
                                    "dense seed " + std::to_string(seed));
    ++wide;
  }
  EXPECT_EQ(wide, 20u);
  {
    // Mixed semantics: every other non-source task reads and writes at
    // its LET boundaries, so both backward-bound branches meet in a pair.
    TaskGraph g = random_dag_graph(16, 3, 4242);
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (!g.is_source(t) && t % 2 == 0) {
        g.task(t).comm = CommSemantics::kLet;
      }
    }
    const TaskId sink = g.sinks().front();
    ASSERT_GE(count_source_chains(g, sink), 2u);
    expect_kernel_matches_reference(g, sink, response_times_of(g),
                                    "mixed LET");
  }
}

TEST(PairKernel, ZeroAndOneChainSinks) {
  // A source task has no source chains; a mid-chain task has exactly one.
  // Both degenerate reports must still match the reference.
  const TaskGraph g = testing::simple_chain_graph();
  const ResponseTimeMap rtm = response_times_of(g);
  for (TaskId t : {TaskId{0}, TaskId{1}, TaskId{2}}) {
    const DisparityReport ref = analyze_time_disparity(g, t, rtm);
    const DisparityReport ker = analyze_time_disparity_kernel(g, t, rtm);
    expect_reports_identical(ref, ker, "task " + std::to_string(t));
    EXPECT_EQ(ker.worst_case, Duration::zero());
    EXPECT_TRUE(ker.pairs.empty());
  }
}

// ---------------------------------------------------------------------------
// KeepPairs semantics

TEST(PairKernel, KeepPairsModesAgreeWithFilteredAll) {
  const TaskGraph g = diamond_stack_graph(3);  // 8 chains, 28 pairs
  const ResponseTimeMap rtm = response_times_of(g);
  const TaskId sink = g.sinks().front();

  DisparityOptions all;
  const DisparityReport full = analyze_time_disparity_kernel(g, sink, rtm, all);
  ASSERT_EQ(full.pairs.size(), 28u);

  for (const std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{28},
                              std::size_t{100}}) {
    DisparityOptions opt;
    opt.keep_pairs = KeepPairs::kTopK;
    opt.top_k = k;
    const DisparityReport top =
        analyze_time_disparity_kernel(g, sink, rtm, opt);
    std::vector<PairDisparity> want = full.pairs;
    apply_keep_pairs(want, opt);
    ASSERT_EQ(top.pairs.size(), std::min(k, full.pairs.size()));
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(top.pairs[i].chain_a, want[i].chain_a) << "k=" << k;
      EXPECT_EQ(top.pairs[i].chain_b, want[i].chain_b) << "k=" << k;
      EXPECT_EQ(top.pairs[i].bound, want[i].bound) << "k=" << k;
    }
    EXPECT_EQ(top.worst_case, full.worst_case);
  }

  DisparityOptions worst;
  worst.keep_pairs = KeepPairs::kWorstOnly;
  const DisparityReport w = analyze_time_disparity_kernel(g, sink, rtm, worst);
  ASSERT_EQ(w.pairs.size(), 1u);
  EXPECT_EQ(w.pairs.front().bound, full.worst_case);
  EXPECT_EQ(w.worst_case, full.worst_case);
}

// ---------------------------------------------------------------------------
// Engine integration

TEST(PairKernel, EngineDisparityMatchesFreeFunctionAtEveryKeepMode) {
  const TaskGraph g = diamond_stack_graph(4);
  const ResponseTimeMap rtm = response_times_of(g);
  const TaskId sink = g.sinks().front();
  const AnalysisEngine engine(g);
  for (const DisparityMethod m : all_methods()) {
    for (const KeepPairs kp : all_keep_modes()) {
      DisparityOptions opt;
      opt.method = m;
      opt.keep_pairs = kp;
      opt.top_k = 4;
      const DisparityReport free_fn = analyze_time_disparity(g, sink, rtm, opt);
      const DisparityReport cached = engine.disparity(sink, opt);
      expect_reports_identical(free_fn, cached,
                               "engine keep=" +
                                   std::to_string(static_cast<int>(kp)));
      // Second call must hit the report cache and still be identical.
      expect_reports_identical(free_fn, engine.disparity(sink, opt), "cached");
    }
  }
  // Distinct keep modes must not alias one cache entry.
  const auto stats = engine.metrics();
  EXPECT_GE(stats.counter("engine.reports.misses"), 6u);
  EXPECT_GE(stats.counter("engine.reports.hits"), 6u);
}

}  // namespace
}  // namespace ceta
