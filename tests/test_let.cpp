// Logical Execution Time (LET) communication: engine semantics, bound
// correctness, and LET's signature property — data timing independent of
// execution times and scheduling.

#include <gtest/gtest.h>

#include "chain/backward_bounds.hpp"
#include "common/error.hpp"
#include "disparity/analyzer.hpp"
#include "graph/serialize.hpp"
#include "helpers.hpp"
#include "sched/priority.hpp"
#include "sim/backward.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

/// S (T=10) -> A (LET, T=10, offset 2) -> B (LET, T=20, offset 0).
TaskGraph let_chain() {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  Task a;
  a.name = "A";
  a.wcet = Duration::ms(1);
  a.bcet = Duration::us(100);
  a.period = Duration::ms(10);
  a.offset = Duration::ms(2);
  a.ecu = 0;
  a.priority = 0;
  a.comm = CommSemantics::kLet;
  const TaskId aid = g.add_task(a);
  Task b;
  b.name = "B";
  b.wcet = Duration::ms(1);
  b.bcet = Duration::us(100);
  b.period = Duration::ms(20);
  b.ecu = 0;
  b.priority = 1;
  b.comm = CommSemantics::kLet;
  const TaskId bid = g.add_task(b);
  g.add_edge(sid, aid);
  g.add_edge(aid, bid);
  g.validate();
  return g;
}

SimOptions traced(Duration duration, std::uint64_t seed = 1) {
  SimOptions opt;
  opt.duration = duration;
  opt.seed = seed;
  opt.record_trace = true;
  return opt;
}

TEST(LetEngine, PublishAtDeadlineNotAtFinish) {
  // A@k releases at 10k+2, executes ~1ms, but its token must only become
  // visible at the deadline 10k+12: a B job released at 10k+10 < deadline
  // must read A's *previous* token.
  const TaskGraph g = let_chain();
  SimOptions opt = traced(Duration::ms(200));
  opt.exec_model = ExecTimeModel::kBestCase;  // finish long before deadline
  const SimResult res = Simulator(g, opt).run();
  for (const JobRecord& j : res.trace.tasks[2].jobs) {  // B
    if (j.release < Duration::ms(40)) continue;
    ASSERT_EQ(j.reads.size(), 1u);
    // B@20k reads the A job whose deadline <= 20k: released 20k−18.
    EXPECT_EQ(j.reads[0].producer_release, j.release - Duration::ms(18));
  }
}

TEST(LetEngine, ReadAtReleaseNotAtStart) {
  // A LET consumer blocked past its release must NOT see data arriving
  // between its release and its (delayed) start.
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(4);
  const TaskId sid = g.add_task(s);
  Task lo;
  lo.name = "low";
  lo.wcet = lo.bcet = Duration::ms(5);
  lo.period = Duration::ms(1000);
  lo.ecu = 0;
  lo.priority = 1;
  const TaskId loid = g.add_task(lo);
  Task hi;
  hi.name = "high";
  hi.wcet = hi.bcet = Duration::ms(1);
  hi.period = Duration::ms(1000);
  hi.offset = Duration::ms(1);
  hi.ecu = 0;
  hi.priority = 0;
  hi.comm = CommSemantics::kLet;
  const TaskId hiid = g.add_task(hi);
  g.add_edge(sid, hiid);
  g.add_edge(sid, loid);
  g.validate();

  const SimResult res = Simulator(g, traced(Duration::ms(20))).run();
  const JobRecord& hij = res.trace.tasks[hiid].jobs.at(0);
  EXPECT_EQ(hij.start, Duration::ms(5));  // blocked by `low`
  ASSERT_EQ(hij.reads.size(), 1u);
  // Released at 1ms: reads the sample from t=0, not the one from t=4.
  EXPECT_EQ(hij.reads[0].producer_release, Duration::zero());
}

TEST(LetEngine, DeterministicDataFlowAcrossExecutionModels) {
  // LET's raison d'être: which data each job consumes is independent of
  // execution times.  Backward times must be bit-identical across
  // best-case, worst-case and randomized execution.
  const TaskGraph g = let_chain();
  std::vector<Duration> reference;
  for (int variant = 0; variant < 3; ++variant) {
    SimOptions opt = traced(Duration::ms(400), 17 + static_cast<std::uint64_t>(variant));
    opt.exec_model = variant == 0   ? ExecTimeModel::kBestCase
                     : variant == 1 ? ExecTimeModel::kWorstCase
                                    : ExecTimeModel::kUniform;
    const SimResult res = Simulator(g, opt).run();
    const BackwardMeasurement m =
        measured_backward_times(g, res.trace, {0, 1, 2}, Duration::ms(50));
    ASSERT_FALSE(m.lengths.empty());
    if (reference.empty()) {
      reference = m.lengths;
    } else {
      EXPECT_EQ(m.lengths, reference) << "variant " << variant;
    }
  }
}

TEST(LetEngine, ImplicitDataFlowIsNotDeterministic) {
  // Control experiment: under implicit communication the data flow *does*
  // depend on execution times.  B (on its own ECU) reads at 10k+2.5ms;
  // A finishes at 10k+2.1ms under BCET (B sees the fresh sample) but at
  // 10k+3ms under WCET (B sees the previous one).
  TaskGraph g = let_chain();
  g.set_comm_semantics(CommSemantics::kImplicit);
  g.task(2).period = Duration::ms(10);
  g.task(2).offset = Duration::us(2500);
  g.task(2).ecu = 1;
  g.validate();
  SimOptions opt = traced(Duration::ms(400), 17);
  opt.exec_model = ExecTimeModel::kBestCase;
  const auto fast =
      measured_backward_times(g, Simulator(g, opt).run().trace, {0, 1, 2}).lengths;
  opt.exec_model = ExecTimeModel::kWorstCase;
  const auto slow =
      measured_backward_times(g, Simulator(g, opt).run().trace, {0, 1, 2}).lengths;
  EXPECT_NE(fast, slow);
}

TEST(LetBounds, HandComputedChain) {
  // θ(S) = T = 10; θ(A, LET) = 2·10 = 20 → W = 30.
  // b(S) = 0; b(A, LET, LET consumer) = T(A) = 10 → B = 10.
  const TaskGraph g = let_chain();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  EXPECT_EQ(wcbt_bound(g, {0, 1, 2}, rtm), Duration::ms(30));
  EXPECT_EQ(bcbt_bound(g, {0, 1, 2}, rtm), Duration::ms(10));
}

TEST(LetBounds, MeasuredWithinBounds) {
  const TaskGraph g = let_chain();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const BackwardBounds b = backward_bounds(g, {0, 1, 2}, rtm);
  const SimResult res = Simulator(g, traced(Duration::s(1), 3)).run();
  const BackwardMeasurement m =
      measured_backward_times(g, res.trace, {0, 1, 2}, Duration::ms(100));
  ASSERT_FALSE(m.lengths.empty());
  for (Duration len : m.lengths) {
    EXPECT_LE(len, b.wcbt);
    EXPECT_GE(len, b.bcbt);
  }
}

TEST(LetBounds, MeasuredExactValueFromDerivation) {
  // Hand-derived steady state: B@20k reads A released 20k−18, which read
  // S@20k−20 → len = 20ms for every job.
  const TaskGraph g = let_chain();
  const SimResult res = Simulator(g, traced(Duration::s(1), 3)).run();
  const BackwardMeasurement m =
      measured_backward_times(g, res.trace, {0, 1, 2}, Duration::ms(100));
  for (Duration len : m.lengths) {
    EXPECT_EQ(len, Duration::ms(20));
  }
}

TEST(LetBounds, MixedChainSafe) {
  // A LET, B implicit (and vice versa): bounds must still contain all
  // measured backward times.
  for (int let_first : {0, 1}) {
    TaskGraph g = let_chain();
    g.task(1).comm =
        let_first ? CommSemantics::kLet : CommSemantics::kImplicit;
    g.task(2).comm =
        let_first ? CommSemantics::kImplicit : CommSemantics::kLet;
    g.validate();
    const ResponseTimeMap rtm = testing::response_times_of(g);
    const BackwardBounds b = backward_bounds(g, {0, 1, 2}, rtm);
    const SimResult res = Simulator(g, traced(Duration::s(1), 5)).run();
    const BackwardMeasurement m =
        measured_backward_times(g, res.trace, {0, 1, 2}, Duration::ms(100));
    ASSERT_FALSE(m.lengths.empty());
    for (Duration len : m.lengths) {
      EXPECT_LE(len, b.wcbt) << "let_first=" << let_first;
      EXPECT_GE(len, b.bcbt) << "let_first=" << let_first;
    }
  }
}

TEST(LetBounds, FifoBufferComposesWithLet) {
  // Lemma 6's sliding-window shift applies to published tokens too: a
  // FIFO of 3 on the S -> A channel adds exactly 2·T(S) of staleness to
  // the deterministic LET data flow.
  TaskGraph g = let_chain();
  g.set_buffer_size(0, 1, 3);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  EXPECT_EQ(wcbt_bound(g, {0, 1, 2}, rtm), Duration::ms(30 + 20));
  EXPECT_EQ(bcbt_bound(g, {0, 1, 2}, rtm), Duration::ms(10 + 20));

  const SimResult res = Simulator(g, traced(Duration::s(1), 3)).run();
  const BackwardMeasurement m =
      measured_backward_times(g, res.trace, {0, 1, 2}, Duration::ms(200));
  ASSERT_FALSE(m.lengths.empty());
  for (Duration len : m.lengths) {
    // Deterministic: exactly the unbuffered value (20ms) plus 2·T(S).
    EXPECT_EQ(len, Duration::ms(40));
  }
}

class LetDisparitySafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LetDisparitySafety, RandomLetGraphsWithinBounds) {
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(12, 3, seed + 7000);
  g.set_comm_semantics(CommSemantics::kLet);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();
  const Duration sdiff = analyze_time_disparity(g, sink, rtm).worst_case;

  Rng rng(seed);
  randomize_offsets(g, rng);
  SimOptions opt;
  opt.duration = Duration::s(2);
  opt.seed = seed;
  const SimResult res = Simulator(g, opt).run();
  EXPECT_LE(res.max_disparity[sink], sdiff) << "seed " << seed;
}

TEST_P(LetDisparitySafety, MixedGraphsWithinBounds) {
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(12, 3, seed + 7500);
  // Every other non-source task uses LET.
  Rng comm_rng(seed);
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    if (!g.is_source(id) && comm_rng.flip(0.5)) {
      g.task(id).comm = CommSemantics::kLet;
    }
  }
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();
  const Duration sdiff = analyze_time_disparity(g, sink, rtm).worst_case;

  Rng rng(seed + 1);
  randomize_offsets(g, rng);
  SimOptions opt;
  opt.duration = Duration::s(2);
  opt.seed = seed;
  const SimResult res = Simulator(g, opt).run();
  EXPECT_LE(res.max_disparity[sink], sdiff) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LetDisparitySafety,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(LetSerialize, RoundTrip) {
  const TaskGraph g = let_chain();
  const std::string text = to_text(g);
  EXPECT_NE(text.find(" let"), std::string::npos);
  const TaskGraph parsed = graph_from_text(text);
  EXPECT_EQ(parsed.task(1).comm, CommSemantics::kLet);
  EXPECT_EQ(parsed.task(0).comm, CommSemantics::kImplicit);
  EXPECT_EQ(to_text(parsed), text);
}

TEST(LetSerialize, ExplicitImplicitKeywordAccepted) {
  const TaskGraph g = graph_from_text(
      "task S 0 0 10000000 0 0 -1 implicit\n"
      "task A 1000000 500000 10000000 0 0 0 let\n"
      "edge S A\n");
  EXPECT_EQ(g.task(0).comm, CommSemantics::kImplicit);
  EXPECT_EQ(g.task(1).comm, CommSemantics::kLet);
  EXPECT_THROW(graph_from_text("task A 0 0 1 0 0 -1 bogus\n"),
               PreconditionError);
}

}  // namespace
}  // namespace ceta
