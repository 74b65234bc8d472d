#include "chain/latency.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "helpers.hpp"
#include "sim/latency.hpp"
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

TEST(LatencyBounds, SimpleChainHandComputed) {
  // Chain {S, A, B}: W = 20ms, B = 0ms; R(B) = 2ms, B(B) = 1ms.
  const TaskGraph g = testing::simple_chain_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  EXPECT_EQ(max_data_age_bound(g, {0, 1, 2}, rtm), Duration::ms(22));
  EXPECT_EQ(min_data_age_bound(g, {0, 1, 2}, rtm), Duration::ms(1));
  // Reaction: T(S) + (T(A)+R(A)) + (T(B)+R(B)) = 10 + 12 + 22 = 44ms.
  EXPECT_EQ(max_reaction_time_bound(g, {0, 1, 2}, rtm), Duration::ms(44));
}

TEST(LatencyBounds, AgeAtLeastBackwardTimePlusBcet) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const TaskGraph g = testing::random_dag_graph(12, 3, seed + 300);
    const ResponseTimeMap rtm = testing::response_times_of(g);
    const TaskId sink = g.sinks().front();
    for (const Path& chain : enumerate_source_chains(g, sink)) {
      EXPECT_GE(max_data_age_bound(g, chain, rtm),
                wcbt_bound(g, chain, rtm));
      EXPECT_LE(min_data_age_bound(g, chain, rtm),
                max_data_age_bound(g, chain, rtm));
    }
  }
}

TEST(LatencyBounds, Preconditions) {
  const TaskGraph g = testing::simple_chain_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  EXPECT_THROW(max_reaction_time_bound(g, {}, rtm), PreconditionError);
  EXPECT_THROW(max_reaction_time_bound(g, {0, 2}, rtm), PreconditionError);
  ResponseTimeMap bad = rtm;
  bad[2] = Duration::max();
  EXPECT_THROW(max_reaction_time_bound(g, {0, 1, 2}, bad),
               PreconditionError);
}

TEST(MeasuredDataAge, DeterministicChain) {
  // S (T=10, offset 0) -> A (T=10, offset 2, W=B=1): every A job reads
  // the same-period S sample; age = (release + 1ms exec) − sample = 3ms.
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
  const DataAgeMeasurement m = measured_data_ages(g, res.trace, {sid, aid});
  ASSERT_FALSE(m.ages.empty());
  for (Duration age : m.ages) {
    EXPECT_EQ(age, Duration::ms(3));
  }
}

TEST(MeasuredDataAge, WithinAnalyticalBounds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const TaskGraph g = testing::random_dag_graph(10, 3, seed + 60);
    const ResponseTimeMap rtm = testing::response_times_of(g);
    const TaskId sink = g.sinks().front();
    const SimResult res = Simulator(g, traced(Duration::s(1), seed)).run();
    for (const Path& chain : enumerate_source_chains(g, sink)) {
      const Duration hi = max_data_age_bound(g, chain, rtm);
      const Duration lo = min_data_age_bound(g, chain, rtm);
      for (Duration age :
           measured_data_ages(g, res.trace, chain).ages) {
        EXPECT_LE(age, hi) << "seed " << seed;
        EXPECT_GE(age, lo) << "seed " << seed;
      }
    }
  }
}

TEST(MeasuredReaction, DeterministicChain) {
  // Same fixture as MeasuredDataAge: a sample taken at 10k is reflected
  // by the A job finishing at 10k + 3ms.
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
  const ReactionMeasurement m = measured_reaction_times(
      g, res.trace, {sid, aid}, Duration::zero(), Duration::ms(150));
  ASSERT_FALSE(m.reactions.empty());
  EXPECT_EQ(m.unanswered, 0u);
  for (Duration r : m.reactions) {
    EXPECT_EQ(r, Duration::ms(3));
  }
}

TEST(MeasuredReaction, WithinAnalyticalBound) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const TaskGraph g = testing::random_dag_graph(10, 3, seed + 90);
    const ResponseTimeMap rtm = testing::response_times_of(g);
    const TaskId sink = g.sinks().front();
    const SimResult res = Simulator(g, traced(Duration::s(2), seed)).run();
    for (const Path& chain : enumerate_source_chains(g, sink)) {
      const Duration bound = max_reaction_time_bound(g, chain, rtm);
      // Only query stimuli early enough that an in-trace answer must
      // exist if the bound holds.
      const ReactionMeasurement m = measured_reaction_times(
          g, res.trace, chain, Duration::ms(100), Duration::s(2) - bound);
      for (Duration r : m.reactions) {
        EXPECT_LE(r, bound) << "seed " << seed;
      }
      EXPECT_EQ(m.unanswered, 0u) << "seed " << seed;
    }
  }
}

TEST(MeasuredReaction, UnansweredAtTraceEnd) {
  TaskGraph g = testing::simple_chain_graph();
  const SimResult res = Simulator(g, traced(Duration::ms(100))).run();
  // Querying stimuli right up to the end leaves the last ones unanswered.
  const ReactionMeasurement m = measured_reaction_times(
      g, res.trace, {0, 1, 2}, Duration::zero(), Instant::max());
  EXPECT_GT(m.unanswered, 0u);
}

TEST(MeasuredReaction, Preconditions) {
  const TaskGraph g = testing::simple_chain_graph();
  const SimResult res = Simulator(g, traced(Duration::ms(50))).run();
  EXPECT_THROW(measured_reaction_times(g, res.trace, {1, 2}, Instant::zero(),
                                       Instant::max()),
               PreconditionError);
}

}  // namespace
}  // namespace ceta
