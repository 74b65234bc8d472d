#include "sim/backward.hpp"

#include <gtest/gtest.h>

#include "chain/backward_bounds.hpp"
#include "common/error.hpp"
#include "disparity/forkjoin.hpp"
#include "helpers.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

SimOptions traced(Duration duration, std::uint64_t seed = 1) {
  SimOptions opt;
  opt.duration = duration;
  opt.seed = seed;
  opt.record_trace = true;
  return opt;
}

TEST(BackwardSim, DeterministicOffsetChain) {
  // S (T=10, offset 0) -> A (T=10, offset 2, W=B=1): every A job reads the
  // S sample from the same period, len = 2ms for all jobs.
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  Task a;
  a.name = "A";
  a.wcet = a.bcet = Duration::ms(1);
  a.period = Duration::ms(10);
  a.offset = Duration::ms(2);
  a.ecu = 0;
  a.priority = 0;
  const TaskId aid = g.add_task(a);
  g.add_edge(sid, aid);
  g.validate();

  SimOptions opt = traced(Duration::ms(200));
  opt.exec_model = ExecTimeModel::kWorstCase;
  const SimResult res = Simulator(g, opt).run();
  const BackwardMeasurement m =
      measured_backward_times(g, res.trace, {sid, aid});
  EXPECT_EQ(m.incomplete, 0u);
  ASSERT_FALSE(m.lengths.empty());
  for (Duration len : m.lengths) {
    EXPECT_EQ(len, Duration::ms(2));
  }
}

TEST(BackwardSim, IncompleteChainsCountedAtStartup) {
  // Source offset 5ms, consumer offset 0: the first consumer job reads an
  // empty channel.
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  s.offset = Duration::ms(5);
  const TaskId sid = g.add_task(s);
  Task a;
  a.name = "A";
  a.wcet = a.bcet = Duration::ms(1);
  a.period = Duration::ms(10);
  a.ecu = 0;
  a.priority = 0;
  const TaskId aid = g.add_task(a);
  g.add_edge(sid, aid);
  g.validate();

  const SimResult res = Simulator(g, traced(Duration::ms(100))).run();
  const BackwardMeasurement m =
      measured_backward_times(g, res.trace, {sid, aid});
  EXPECT_EQ(m.incomplete, 1u);
  EXPECT_EQ(m.lengths.size(), res.trace.tasks[aid].jobs.size() - 1);
}

TEST(BackwardSim, LengthsWithinLemma45Bounds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const TaskGraph g = testing::random_dag_graph(10, 3, seed + 10);
    const ResponseTimeMap rtm = testing::response_times_of(g);
    const TaskId sink = g.sinks().front();
    const SimResult res = Simulator(g, traced(Duration::s(1), seed)).run();
    for (const Path& chain : enumerate_source_chains(g, sink)) {
      const BackwardBounds b = backward_bounds(g, chain, rtm);
      const BackwardMeasurement m =
          measured_backward_times(g, res.trace, chain);
      for (Duration len : m.lengths) {
        EXPECT_LE(len, b.wcbt) << "seed " << seed;
        EXPECT_GE(len, b.bcbt) << "seed " << seed;
      }
    }
  }
}

TEST(BackwardSim, SchedulingAgnosticBoundAlsoHolds) {
  const TaskGraph g = testing::random_dag_graph(10, 3, 33);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();
  const SimResult res = Simulator(g, traced(Duration::s(1), 3)).run();
  for (const Path& chain : enumerate_source_chains(g, sink)) {
    const Duration w =
        wcbt_bound(g, chain, rtm, HopBoundMethod::kSchedulingAgnostic);
    for (Duration len :
         measured_backward_times(g, res.trace, chain).lengths) {
      EXPECT_LE(len, w);
    }
  }
}

TEST(BackwardSim, BufferedChainRespectsLemma6) {
  // Put a FIFO on the head channel of one chain of the diamond and check
  // the shifted bounds hold after warm-up.
  TaskGraph g = testing::diamond_graph();
  g.set_buffer_size(0, 1, 3);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const Path lambda = {0, 1, 2, 4};
  const BackwardBounds shifted = backward_bounds(g, lambda, rtm);

  const SimResult res = Simulator(g, traced(Duration::s(2), 7)).run();
  const Instant warmup = Duration::ms(200);
  const BackwardMeasurement m =
      measured_backward_times(g, res.trace, lambda, warmup);
  ASSERT_FALSE(m.lengths.empty());
  for (Duration len : m.lengths) {
    EXPECT_LE(len, shifted.wcbt);
    EXPECT_GE(len, shifted.bcbt);
  }
}

TEST(BackwardSim, PairDiffsWithinTheorem2Bound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const TaskGraph g = testing::random_two_chain_graph(5, 2, seed + 70);
    const ResponseTimeMap rtm = testing::response_times_of(g);
    const TaskId sink = g.sinks().front();
    const auto chains = enumerate_source_chains(g, sink);
    ASSERT_EQ(chains.size(), 2u);
    const Duration bound =
        sdiff_pair_bound(g, chains[0], chains[1], rtm).bound;

    const SimResult res = Simulator(g, traced(Duration::s(1), seed)).run();
    const auto diffs = measured_pair_timestamp_diffs(
        g, res.trace, chains[0], chains[1], Duration::ms(500));
    for (Duration d : diffs) {
      EXPECT_LE(d, bound) << "seed " << seed;
    }
  }
}

TEST(BackwardSim, PairDiffsMatchProvenanceDisparity) {
  // On a two-chain merge the sink's provenance disparity at each job must
  // equal the pair timestamp difference reconstructed from the trace.
  const TaskGraph g = testing::random_two_chain_graph(4, 2, 123);
  const TaskId sink = g.sinks().front();
  const auto chains = enumerate_source_chains(g, sink);

  SimOptions opt = traced(Duration::s(1), 5);
  opt.warmup = Duration::ms(500);
  const SimResult res = Simulator(g, opt).run();
  const auto diffs = measured_pair_timestamp_diffs(
      g, res.trace, chains[0], chains[1], opt.warmup);
  ASSERT_FALSE(diffs.empty());
  Duration max_diff = Duration::zero();
  for (Duration d : diffs) max_diff = std::max(max_diff, d);
  EXPECT_EQ(max_diff, res.max_disparity[sink]);
}

TEST(BackwardSim, Preconditions) {
  const TaskGraph g = testing::simple_chain_graph();
  const SimResult res = Simulator(g, traced(Duration::ms(100))).run();
  EXPECT_THROW(measured_backward_times(g, res.trace, {0, 2}),
               PreconditionError);
  EXPECT_THROW(
      measured_pair_timestamp_diffs(g, res.trace, {0, 1, 2}, {1, 2}),
      PreconditionError);
}

}  // namespace
}  // namespace ceta
