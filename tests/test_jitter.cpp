// Release jitter: model validation, jitter-aware response times, bound
// degradation rules, and end-to-end safety against the simulator.

#include <gtest/gtest.h>

#include "chain/backward_bounds.hpp"
#include "common/error.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/forkjoin.hpp"
#include "graph/serialize.hpp"
#include "helpers.hpp"
#include "sched/priority.hpp"
#include "sim/backward.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

TEST(JitterModel, ValidationRules) {
  Task t;
  t.name = "t";
  t.wcet = t.bcet = Duration::ms(1);
  t.period = Duration::ms(10);
  t.ecu = 0;
  t.jitter = Duration::ms(9);
  EXPECT_NO_THROW(validate_task(t));
  t.jitter = Duration::ms(10);  // must be < period
  EXPECT_THROW(validate_task(t), PreconditionError);
  t.jitter = Duration::ms(-1);
  EXPECT_THROW(validate_task(t), PreconditionError);
  t.jitter = Duration::ms(1);
  t.comm = CommSemantics::kLet;  // LET must be jitter-free
  EXPECT_THROW(validate_task(t), PreconditionError);
}

TEST(JitterRta, InterferenceGrowsWithJitter) {
  // hp task (W=2, T=10) with jitter J: the victim (W=3, T=20, lower prio)
  // sees (floor((w+J)/10)+1) hp instances.
  // J=0: w = 2, R = 5.  J=9ms: w=2 -> floor(11/10)+1 = 2 instances -> w=4:
  // floor(13/10)+1 = 2 -> 4. R = 7.
  std::vector<CompetingTask> hp = {{Duration::ms(2), Duration::ms(10)}};
  EXPECT_EQ(npfp_response_time(Duration::ms(3), Duration::ms(20),
                               Duration::zero(), hp),
            Duration::ms(5));
  hp[0].jitter = Duration::ms(9);
  EXPECT_EQ(npfp_response_time(Duration::ms(3), Duration::ms(20),
                               Duration::zero(), hp),
            Duration::ms(7));
}

TEST(JitterRta, OwnJitterAddsToResponse) {
  // Alone on the ECU: R = J + W.
  EXPECT_EQ(npfp_response_time(Duration::ms(2), Duration::ms(10),
                               Duration::zero(), {}, Duration::ms(4)),
            Duration::ms(6));
}

TEST(JitterRta, SourceResponseEqualsJitter) {
  TaskGraph g = testing::simple_chain_graph();
  g.task(0).jitter = Duration::ms(3);
  g.validate();
  const RtaResult rta = analyze_response_times(g);
  EXPECT_EQ(rta.response_time[0], Duration::ms(3));
}

TEST(JitterBounds, SourceHopWidensByJitter) {
  TaskGraph g = testing::simple_chain_graph();
  const ResponseTimeMap rtm0 = testing::response_times_of(g);
  const Duration base = wcbt_bound(g, {0, 1, 2}, rtm0);
  g.task(0).jitter = Duration::ms(4);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  EXPECT_EQ(wcbt_bound(g, {0, 1, 2}, rtm), base + Duration::ms(4));
}

TEST(JitterBounds, SameEcuRefinementDisabledUnderJitter) {
  // The A->B hop uses the Lemma 4 hp refinement (θ = T) when jitter-free;
  // with jitter on A it must fall back to θ = T + R.
  TaskGraph g = testing::simple_chain_graph();
  const ResponseTimeMap rtm0 = testing::response_times_of(g);
  EXPECT_EQ(hop_bound(g, 1, 2, rtm0, HopBoundMethod::kNonPreemptive),
            Duration::ms(10));
  g.task(1).jitter = Duration::ms(2);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  EXPECT_EQ(hop_bound(g, 1, 2, rtm, HopBoundMethod::kNonPreemptive),
            Duration::ms(10) + rtm[1]);
}

TEST(JitterBounds, SharedSourceFloorDisabled) {
  // Diamond with a jittered source: Theorem 1 must not floor to period
  // multiples any more (41ms + 2·J instead of 40ms).
  TaskGraph g = testing::diamond_graph();
  const ResponseTimeMap rtm0 = testing::response_times_of(g);
  const Duration floored = analyze_time_disparity(g, 4, rtm0).worst_case;
  EXPECT_EQ(floored, Duration::ms(40));

  g.task(0).jitter = Duration::ms(1);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const Duration unfloored = analyze_time_disparity(g, 4, rtm).worst_case;
  // W grows by J on both chains (source hop) and the floor disappears:
  // O = 41 + 1 + 1 = ... W = 43, B = 1 -> O = 42.
  EXPECT_EQ(unfloored, Duration::ms(42));
}

TEST(JitterBounds, ForkJoinDegradesAtJitteredJoint) {
  // Jitter on the middle joint A forces the Theorem 2 fallback.
  TaskGraph g = testing::diamond_graph();
  g.task(1).jitter = Duration::ms(1);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const ForkJoinBound fj =
      sdiff_pair_bound(g, {0, 1, 2, 4}, {0, 1, 3, 4}, rtm);
  EXPECT_TRUE(fj.degraded);
  // Degraded = independent windows, and the (jitter-free) shared source
  // flooring is also skipped inside the degraded path: bound = separation.
  EXPECT_EQ(fj.bound, fj.separation);
}

TEST(JitterBounds, NoDegradeWhenOnlyNonJointHasJitter) {
  // Jitter on branch task C (not a joint): recursion stays exact.
  TaskGraph g = testing::diamond_graph();
  g.task(2).jitter = Duration::ms(1);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const ForkJoinBound fj =
      sdiff_pair_bound(g, {0, 1, 2, 4}, {0, 1, 3, 4}, rtm);
  EXPECT_FALSE(fj.degraded);
}

TEST(JitterEngine, ReleasesWithinJitterWindow) {
  TaskGraph g = testing::simple_chain_graph();
  g.task(1).jitter = Duration::ms(3);
  g.validate();
  SimOptions opt;
  opt.duration = Duration::ms(300);
  opt.record_trace = true;
  opt.seed = 5;
  const SimResult res = Simulator(g, opt).run();
  bool jittered = false;
  for (const JobRecord& j : res.trace.tasks[1].jobs) {
    const Duration nominal = Duration::ms(10) * j.index;
    EXPECT_GE(j.release, nominal);
    EXPECT_LE(j.release, nominal + Duration::ms(3));
    if (j.release != nominal) jittered = true;
  }
  EXPECT_TRUE(jittered);
  // Period of the *nominal* grid is preserved even under jitter.
  EXPECT_EQ(res.trace.tasks[1].jobs.size(), 30u);
}

TEST(JitterEngine, ZeroJitterStaysNominal) {
  const TaskGraph g = testing::simple_chain_graph();
  SimOptions opt;
  opt.duration = Duration::ms(100);
  opt.record_trace = true;
  const SimResult res = Simulator(g, opt).run();
  for (const JobRecord& j : res.trace.tasks[1].jobs) {
    EXPECT_EQ(j.release, Duration::ms(10) * j.index);
  }
}

class JitterSafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JitterSafety, BackwardTimesWithinBounds) {
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(10, 3, seed + 30000);
  // Random jitter on a subset of tasks (sources included).
  Rng rng(seed);
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    if (rng.flip(0.5)) {
      g.task(id).jitter = Duration::ns(
          rng.uniform_int(0, g.task(id).period.count() / 3));
    }
  }
  g.validate();
  const RtaResult rta = analyze_response_times(g);
  ASSERT_TRUE(rta.all_schedulable);
  const TaskId sink = g.sinks().front();

  SimOptions opt;
  opt.duration = Duration::s(2);
  opt.seed = seed;
  opt.record_trace = true;
  const SimResult res = Simulator(g, opt).run();
  for (const Path& chain : enumerate_source_chains(g, sink)) {
    const BackwardBounds b = backward_bounds(g, chain, rta.response_time);
    const BackwardMeasurement m =
        measured_backward_times(g, res.trace, chain, Duration::ms(200));
    for (Duration len : m.lengths) {
      EXPECT_LE(len, b.wcbt) << "seed " << seed;
      EXPECT_GE(len, b.bcbt) << "seed " << seed;
    }
  }
}

TEST_P(JitterSafety, DisparityWithinBounds) {
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(12, 3, seed + 31000);
  Rng rng(seed);
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    if (rng.flip(0.5)) {
      g.task(id).jitter = Duration::ns(
          rng.uniform_int(0, g.task(id).period.count() / 3));
    }
  }
  g.validate();
  const RtaResult rta = analyze_response_times(g);
  ASSERT_TRUE(rta.all_schedulable);
  const TaskId sink = g.sinks().front();
  const Duration sdiff =
      analyze_time_disparity(g, sink, rta.response_time).worst_case;

  randomize_offsets(g, rng);
  SimOptions opt;
  opt.duration = Duration::s(2);
  opt.seed = seed + 1;
  const SimResult res = Simulator(g, opt).run();
  EXPECT_LE(res.max_disparity[sink], sdiff) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitterSafety,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(JitterSerialize, RoundTrip) {
  TaskGraph g = testing::simple_chain_graph();
  g.task(1).jitter = Duration::us(1500);
  const std::string text = to_text(g);
  EXPECT_NE(text.find("J=1500000"), std::string::npos);
  const TaskGraph parsed = graph_from_text(text);
  EXPECT_EQ(parsed.task(1).jitter, Duration::us(1500));
  EXPECT_EQ(to_text(parsed), text);
}

TEST(JitterSerialize, MalformedAttributeRejected) {
  EXPECT_THROW(graph_from_text("task A 0 0 1 0 0 -1 J=xyz\n"),
               PreconditionError);
  EXPECT_THROW(graph_from_text("task A 0 0 1 0 0 -1 K=5\n"),
               PreconditionError);
}

}  // namespace
}  // namespace ceta
