// Exact LET disparity: cross-validated against the simulator (they must
// agree to the nanosecond on deterministic systems) and against the
// offset-oblivious bounds.

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/exact.hpp"
#include "graph/generator.hpp"
#include "helpers.hpp"
#include "sched/npfp_rta.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace ceta {
namespace {

/// Random two-chain WATERS instance converted to LET with random offsets.
TaskGraph let_instance(std::uint64_t seed, std::size_t len = 4) {
  TaskGraph g = testing::random_two_chain_graph(len, 3, seed);
  g.set_comm_semantics(CommSemantics::kLet);
  Rng rng(seed * 13 + 5);
  randomize_offsets(g, rng);
  g.validate();
  return g;
}

class ExactLet : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactLet, AgreesWithSimulationExactly) {
  const std::uint64_t seed = GetParam();
  const TaskGraph g = let_instance(seed);
  const TaskId sink = g.sinks().front();
  const ExactLetResult exact = exact_let_disparity(g, sink);

  // Simulate long enough to cover warm-up plus a full hyperperiod; the
  // measured steady-state maximum must equal the exact value.
  SimOptions opt;
  opt.warmup = Duration::s(3);
  opt.duration = Duration::s(8);
  opt.seed = seed;
  opt.exec_model = ExecTimeModel::kUniform;  // execution times irrelevant
  const SimResult res = Simulator(g, opt).run();
  EXPECT_EQ(res.max_disparity[sink], exact.worst_disparity)
      << "seed " << seed;
}

TEST_P(ExactLet, WithinAnalyticalBound) {
  const std::uint64_t seed = GetParam();
  const TaskGraph g = let_instance(seed);
  const TaskId sink = g.sinks().front();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const Duration bound = analyze_time_disparity(g, sink, rtm).worst_case;
  const ExactLetResult exact = exact_let_disparity(g, sink);
  EXPECT_LE(exact.worst_disparity, bound) << "seed " << seed;
  EXPECT_GT(exact.worst_disparity, Duration::zero()) << "seed " << seed;
}

TEST_P(ExactLet, InvariantToGlobalOffsetShift) {
  // Shifting every offset by the same amount preserves all relative
  // phases; 1ms divides every WATERS period, so reducing each shifted
  // offset modulo its period lands on the same phase pattern.
  const std::uint64_t seed = GetParam();
  TaskGraph g = let_instance(seed);
  const TaskId sink = g.sinks().front();
  const Duration base = exact_let_disparity(g, sink).worst_disparity;

  // Shift all offsets by 1ms modulo each task's period (1ms divides every
  // WATERS period, so every relative phase difference is preserved).
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    Task& t = g.task(id);
    t.offset = Duration::ns(
        floor_mod((t.offset + Duration::ms(1)).count(), t.period.count()));
  }
  g.validate();
  EXPECT_EQ(exact_let_disparity(g, sink).worst_disparity, base)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactLet,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(ExactLet, HandComputedTwoChains) {
  // S1(T=10) -> A(LET,T=10) -> F(LET,T=20), S2(T=20,offset 5) ->
  // B(LET,T=20) -> F; other offsets 0; t = a release of F (multiple of
  // 20ms).
  // λ: latest A publish <= t is the job released at t−10 (publishes at
  //    release+10); it read S1 at its own release -> λ timestamp = t−10.
  // ν: latest B publish <= t is the job released at t−20; the latest S2
  //    sample <= t−20 is 5 + 20·floor((t−25)/20) = t−35.
  // Disparity = (t−10) − (t−35) = 25ms at every release.
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

  const ExactLetResult exact = exact_let_disparity(g, f);
  EXPECT_EQ(exact.worst_disparity, Duration::ms(25));
  EXPECT_EQ(exact.releases_examined, 1u);  // hyperperiod 20ms / T(F) 20ms
}

TEST(ExactLet, BufferShiftsExactly) {
  // Adding a FIFO of 3 on S1 -> A delays λ's sample by exactly 2·T(S1).
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
  g.add_edge(s1id, a, ChannelSpec{3});
  g.add_edge(s2id, b);
  g.add_edge(a, f);
  g.add_edge(b, f);
  g.validate();
  // λ timestamp drops from t−10 to t−30; ν stays t−35: disparity 5ms.
  EXPECT_EQ(exact_let_disparity(g, f).worst_disparity, Duration::ms(5));
}

TEST(ExactLet, WarmupHorizonHandComputed) {
  // Σ_hops (buffer+1)·T(producer), maxed over chains.  On the unbuffered
  // two-chain graph: λ = 2·10 + 2·10 = 40ms, ν = 2·20 + 2·20 = 80ms.
  TaskGraph g;
  Task s1;
  s1.name = "S1";
  s1.period = Duration::ms(10);
  const TaskId s1id = g.add_task(s1);
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ms(20);
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
  EXPECT_EQ(exact_warmup_horizon(g, f), Duration::ms(80));
  // A FIFO deepens the horizon of its chain: buffer 4 on S2 → B makes
  // ν = 5·20 + 2·20 = 140ms.
  TaskGraph g2 = g;
  g2.set_buffer_size(s2id, b, 4);
  g2.validate();
  EXPECT_EQ(exact_warmup_horizon(g2, f), Duration::ms(140));
}

TEST(ExactLet, DeepChainWithLargeBuffersDoesNotUnderProvisionWarmup) {
  // Regression for the old ×3-period warm-up heuristic: six hops with
  // buffer-4 FIFOs need Σ (4+1)·10ms = 300ms of history on the deep
  // chain, far beyond a few periods.  The derived horizon must make the
  // trace well-defined (no negative job index ⇒ no InvariantError) and
  // agree with the simulator's steady state.
  TaskGraph g;
  Task src;
  src.name = "src";
  src.period = Duration::ms(10);
  const TaskId srcid = g.add_task(src);
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
  TaskId prev = srcid;
  for (int i = 0; i < 5; ++i) {
    const TaskId c = g.add_task(
        mk(("c" + std::to_string(i)).c_str(), Duration::ms(10), 0, i));
    g.add_edge(prev, c, ChannelSpec{4});
    prev = c;
  }
  const TaskId f = g.add_task(mk("F", Duration::ms(20), 1, 0));
  g.add_edge(prev, f, ChannelSpec{4});
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ms(20);
  s2.offset = Duration::ms(5);
  const TaskId s2id = g.add_task(s2);
  const TaskId bid = g.add_task(mk("B", Duration::ms(20), 1, 1));
  g.add_edge(s2id, bid);
  g.add_edge(bid, f);
  g.validate();

  EXPECT_EQ(exact_warmup_horizon(g, f), Duration::ms(300));
  ExactLetResult exact;
  ASSERT_NO_THROW(exact = exact_let_disparity(g, f));
  EXPECT_GT(exact.worst_disparity, Duration::zero());

  SimOptions opt;
  opt.warmup = exact_warmup_horizon(g, f) + Duration::ms(100);
  opt.duration = opt.warmup + Duration::s(2);
  opt.seed = 99;
  opt.exec_model = ExecTimeModel::kUniform;
  const SimResult res = Simulator(g, opt).run();
  EXPECT_EQ(res.max_disparity[f], exact.worst_disparity);
}

TEST(ExactLet, SourceReadAtExactCoincidenceIsVisible) {
  // F (LET, T=10) reads both sources at its release t (multiple of 10ms).
  // S1 releases at exactly t: Definition 1's "no later than" makes that
  // sample visible, so λ = t.  S2 (offset 1ms) gives ν = t−9ms.
  // Inclusive semantics ⇒ disparity 9ms; exclusive would give 1ms.
  TaskGraph g;
  Task s1;
  s1.name = "S1";
  s1.period = Duration::ms(10);
  const TaskId s1id = g.add_task(s1);
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ms(10);
  s2.offset = Duration::ms(1);
  const TaskId s2id = g.add_task(s2);
  Task f;
  f.name = "F";
  f.wcet = f.bcet = Duration::ms(1);
  f.period = Duration::ms(10);
  f.ecu = 0;
  f.priority = 0;
  f.comm = CommSemantics::kLet;
  const TaskId fid = g.add_task(f);
  g.add_edge(s1id, fid);
  g.add_edge(s2id, fid);
  g.validate();

  const ExactLetResult exact = exact_let_disparity(g, fid);
  EXPECT_EQ(exact.worst_disparity, Duration::ms(9));

  SimOptions opt;
  opt.warmup = Duration::ms(200);
  opt.duration = Duration::s(1);
  opt.seed = 5;
  opt.exec_model = ExecTimeModel::kUniform;
  EXPECT_EQ(Simulator(g, opt).run().max_disparity[fid], Duration::ms(9));
}

TEST(ExactLet, NonSourcePublishAtExactCoincidenceIsVisible) {
  // A (LET, T=10) publishes at release+10; the job released at t−10
  // publishes at exactly t, the instant F reads.  Inclusive semantics
  // make it visible: λ = t−10 (that job read S1 at its release), and with
  // ν = t−9 the disparity is 1ms at every release.  Exclusive semantics
  // would push λ back a full period to t−20 (disparity 11ms).
  TaskGraph g;
  Task s1;
  s1.name = "S1";
  s1.period = Duration::ms(10);
  const TaskId s1id = g.add_task(s1);
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ms(10);
  s2.offset = Duration::ms(1);
  const TaskId s2id = g.add_task(s2);
  auto mk = [](const char* name, EcuId ecu, int prio) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = Duration::ms(10);
    t.ecu = ecu;
    t.priority = prio;
    t.comm = CommSemantics::kLet;
    return t;
  };
  const TaskId a = g.add_task(mk("A", 0, 0));
  const TaskId fid = g.add_task(mk("F", 1, 0));
  g.add_edge(s1id, a);
  g.add_edge(a, fid);
  g.add_edge(s2id, fid);
  g.validate();

  const ExactLetResult exact = exact_let_disparity(g, fid);
  EXPECT_EQ(exact.worst_disparity, Duration::ms(1));

  SimOptions opt;
  opt.warmup = Duration::ms(200);
  opt.duration = Duration::s(1);
  opt.seed = 5;
  opt.exec_model = ExecTimeModel::kUniform;
  EXPECT_EQ(Simulator(g, opt).run().max_disparity[fid], Duration::ms(1));
}

TEST(ExactLet, SingleChainIsZero) {
  TaskGraph g = testing::simple_chain_graph();
  g.set_comm_semantics(CommSemantics::kLet);
  EXPECT_EQ(exact_let_disparity(g, 2).worst_disparity, Duration::zero());
}

TEST(ExactLet, RejectsNonLetClosure) {
  const TaskGraph g = testing::diamond_graph();  // implicit tasks
  EXPECT_THROW(exact_let_disparity(g, 4), PreconditionError);
}

TEST(ExactLet, RejectsJitter) {
  TaskGraph g = testing::simple_chain_graph();
  g.set_comm_semantics(CommSemantics::kLet);
  g.task(0).jitter = Duration::ms(1);
  // Need a second chain for disparity to matter; but the precondition
  // fires regardless of chain count.
  EXPECT_THROW(exact_let_disparity(g, 2), PreconditionError);
}

}  // namespace
}  // namespace ceta
