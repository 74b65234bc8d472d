// AnalysisEngine::clone(): deep, independent copies with warm caches.
//
// The explorer's parallelism rests on three clone guarantees
// (analysis_engine.hpp):
//  1. Query parity — every memoized query of a fresh clone is
//     bit-identical to the parent's, and the clone's caches are *warm*
//     (the first post-clone query is a hit, not a recompute).
//  2. Mutation isolation — commits on the clone never invalidate the
//     parent and vice versa; each side stays field-identical to a fresh
//     engine over its own graph.
//  3. Concurrency — clone() is a const query; N clones may be built and
//     queried concurrently with parent reads (run this file under
//     -DCETA_SANITIZE=thread too).

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"

namespace ceta {
namespace {

using ceta::testing::diamond_graph;
using ceta::testing::random_dag_graph;
using ceta::testing::random_two_chain_graph;
using ceta::testing::response_times_of;

/// Every memoized query surface at once, for cheap parity asserts.
struct QueryDigest {
  ResponseTimeMap rtm;
  DisparityReport disparity;
  std::size_t chain_count = 0;
  Duration max_data_age;

  static QueryDigest of(AnalysisEngine& e, TaskId sink) {
    QueryDigest d;
    d.rtm = e.response_times();
    DisparityOptions opt;
    opt.keep_pairs = KeepPairs::kWorstOnly;
    d.disparity = e.disparity(sink, opt);
    const std::vector<Path>& chains = e.chains(sink);
    d.chain_count = chains.size();
    d.max_data_age = Duration::zero();
    for (const Path& c : chains) {
      const LatencyReport lr = e.latency(c);
      if (lr.max_data_age > d.max_data_age) d.max_data_age = lr.max_data_age;
    }
    return d;
  }
};

void expect_equal(const QueryDigest& a, const QueryDigest& b) {
  EXPECT_EQ(a.rtm, b.rtm);
  EXPECT_EQ(a.disparity.worst_case, b.disparity.worst_case);
  EXPECT_EQ(a.disparity.chain_count, b.disparity.chain_count);
  EXPECT_EQ(a.chain_count, b.chain_count);
  EXPECT_EQ(a.max_data_age, b.max_data_age);
}

TEST(EngineClone, QueriesBitIdenticalAndCachesWarm) {
  const TaskGraph g = random_dag_graph(12, 3, 2024);
  const TaskId sink = g.sinks().front();
  AnalysisEngine parent(g);
  const QueryDigest before = QueryDigest::of(parent, sink);

  const std::unique_ptr<AnalysisEngine> clone = parent.clone();
  const obs::MetricsSnapshot at_birth = clone->metrics();
  const QueryDigest cloned = QueryDigest::of(*clone, sink);
  expect_equal(before, cloned);

  // The copied caches must serve the clone's first queries: zero fresh RTA
  // runs, at least one report/chain-set hit, and not a single miss beyond
  // what the parent had already paid.
  const obs::MetricsSnapshot warmed = clone->metrics();
  EXPECT_EQ(warmed.counter("engine.rta.runs"),
            at_birth.counter("engine.rta.runs"));
  EXPECT_GT(warmed.counter("engine.reports.hits"),
            at_birth.counter("engine.reports.hits"));
  EXPECT_GT(warmed.counter("engine.chain_sets.hits"),
            at_birth.counter("engine.chain_sets.hits"));
  EXPECT_EQ(warmed.counter("engine.reports.misses"),
            at_birth.counter("engine.reports.misses"));
  EXPECT_EQ(warmed.counter("engine.chain_sets.misses"),
            at_birth.counter("engine.chain_sets.misses"));
}

TEST(EngineClone, MetricsRegistryStartsFresh) {
  AnalysisEngine parent(diamond_graph());
  (void)parent.disparity(4);
  const std::unique_ptr<AnalysisEngine> clone = parent.clone();
  // Parent counters are non-zero; the clone's registry starts at zero and
  // the two never share counters afterwards.
  EXPECT_FALSE(parent.metrics_registry().snapshot().counters.empty());
  for (const auto& [name, value] :
       clone->metrics_registry().snapshot().counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  (void)clone->disparity(4);
  const auto parent_snap = parent.metrics_registry().snapshot();
  (void)clone->disparity(4);
  EXPECT_EQ(parent.metrics_registry().snapshot().counters,
            parent_snap.counters);
}

TEST(EngineClone, CloneMutationsNeverTouchTheParent) {
  const TaskGraph g = random_two_chain_graph(5, 3, 77);
  const TaskId sink = g.sinks().front();
  AnalysisEngine parent(g);
  const QueryDigest before = QueryDigest::of(parent, sink);

  const std::unique_ptr<AnalysisEngine> clone = parent.clone();
  {
    const Edge& e = clone->graph().edges().front();
    AnalysisEngine::Transaction txn(*clone);
    txn.set_buffer(e.from, e.to, 4);
    txn.commit();
  }
  EXPECT_EQ(clone->graph().edges().front().channel.buffer_size, 4);
  EXPECT_EQ(parent.graph().edges().front().channel.buffer_size, 1);

  // Parent queries after the clone's commit: all hits (nothing was
  // invalidated), same values as before the clone existed.
  const obs::MetricsSnapshot pre = parent.metrics();
  const QueryDigest after = QueryDigest::of(parent, sink);
  expect_equal(before, after);
  const obs::MetricsSnapshot post = parent.metrics();
  EXPECT_EQ(post.counter("engine.reports.misses"),
            pre.counter("engine.reports.misses"));
  EXPECT_EQ(post.counter("engine.reports.stale"),
            pre.counter("engine.reports.stale"));

  // And the mutated clone matches a fresh engine over its mutated graph.
  AnalysisEngine fresh(clone->graph());
  expect_equal(QueryDigest::of(*clone, sink), QueryDigest::of(fresh, sink));
}

TEST(EngineClone, ParentMutationsNeverTouchTheClone) {
  const TaskGraph g = random_two_chain_graph(5, 3, 78);
  const TaskId sink = g.sinks().front();
  AnalysisEngine parent(g);
  (void)QueryDigest::of(parent, sink);

  const std::unique_ptr<AnalysisEngine> clone = parent.clone();
  const QueryDigest before = QueryDigest::of(*clone, sink);
  {
    const Edge& e = parent.graph().edges().front();
    AnalysisEngine::Transaction txn(parent);
    txn.set_buffer(e.from, e.to, 3);
    txn.commit();
  }
  const obs::MetricsSnapshot pre = clone->metrics();
  const QueryDigest after = QueryDigest::of(*clone, sink);
  expect_equal(before, after);
  const obs::MetricsSnapshot post = clone->metrics();
  EXPECT_EQ(post.counter("engine.reports.stale"),
            pre.counter("engine.reports.stale"));
  EXPECT_EQ(post.counter("engine.chain_sets.stale"),
            pre.counter("engine.chain_sets.stale"));
}

TEST(EngineClone, ExternalRtmModeClones) {
  const TaskGraph g = diamond_graph();
  const ResponseTimeMap rtm = response_times_of(g);
  AnalysisEngine parent(g, rtm);
  EXPECT_THROW((void)parent.rta(), PreconditionError);

  const std::unique_ptr<AnalysisEngine> clone = parent.clone();
  EXPECT_THROW((void)clone->rta(), PreconditionError);
  EXPECT_EQ(clone->response_times(), rtm);
  EXPECT_EQ(clone->disparity(4).worst_case, parent.disparity(4).worst_case);
}

TEST(EngineClone, ManyClonesQueryConcurrently) {
  // TSan target: build clones while the parent is being read, then hammer
  // independent queries from every clone at once.  Each clone also commits
  // a private mutation, so the test fails loudly if any cache state is
  // accidentally shared.
  const TaskGraph g = random_dag_graph(12, 3, 4096);
  const TaskId sink = g.sinks().front();
  AnalysisEngine parent(g);
  const QueryDigest base = QueryDigest::of(parent, sink);

  constexpr int kClones = 4;
  std::vector<std::unique_ptr<AnalysisEngine>> clones(kClones);
  {
    std::vector<std::thread> workers;
    workers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) (void)parent.disparity(sink);
    });
    for (int c = 0; c < kClones; ++c) {
      workers.emplace_back([&, c] { clones[c] = parent.clone(); });
    }
    for (std::thread& t : workers) t.join();
  }

  std::vector<QueryDigest> digests(kClones);
  {
    std::vector<std::thread> workers;
    for (int c = 0; c < kClones; ++c) {
      workers.emplace_back([&, c] {
        AnalysisEngine& e = *clones[c];
        const Edge& edge = e.graph().edges().front();
        AnalysisEngine::Transaction txn(e);
        txn.set_buffer(edge.from, edge.to, 2 + c);
        txn.commit();
        digests[c] = QueryDigest::of(e, sink);
      });
    }
    for (std::thread& t : workers) t.join();
  }
  for (int c = 0; c < kClones; ++c) {
    EXPECT_EQ(clones[c]->graph().edges().front().channel.buffer_size, 2 + c);
    AnalysisEngine fresh(clones[c]->graph());
    expect_equal(digests[c], QueryDigest::of(fresh, sink));
  }
  // The parent never saw any of it.
  expect_equal(base, QueryDigest::of(parent, sink));
}

}  // namespace
}  // namespace ceta
