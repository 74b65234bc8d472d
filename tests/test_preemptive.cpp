// Preemptive fixed-priority support (extension; the paper's model is
// non-preemptive).  Covers the preemptive RTA, the engine's preemption
// semantics, and end-to-end disparity safety with the scheduling-agnostic
// hop bounds.

#include <gtest/gtest.h>

#include "chain/backward_bounds.hpp"
#include "common/error.hpp"
#include "disparity/analyzer.hpp"
#include "helpers.hpp"
#include "sched/edf_rta.hpp"
#include "sched/priority.hpp"
#include "sim/backward.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

TaskId add(TaskGraph& g, const char* name, Duration wcet, Duration period,
           EcuId ecu, int prio, Duration offset = Duration::zero()) {
  Task t;
  t.name = name;
  t.wcet = t.bcet = wcet;
  t.period = period;
  t.ecu = ecu;
  t.priority = prio;
  t.offset = offset;
  return g.add_task(t);
}

TEST(PreemptiveRta, ClassicThreeTaskSet) {
  // t1 (C=1,T=4), t2 (C=2,T=6), t3 (C=3,T=13), preemptive FP:
  // R1 = 1, R2 = 3, R3 = 10 (hand-computed fixpoints).
  const std::vector<CompetingTask> none;
  EXPECT_EQ(preemptive_response_time(Duration::ms(1), Duration::ms(4), none),
            Duration::ms(1));
  const std::vector<CompetingTask> hp1 = {{Duration::ms(1), Duration::ms(4)}};
  EXPECT_EQ(preemptive_response_time(Duration::ms(2), Duration::ms(6), hp1),
            Duration::ms(3));
  const std::vector<CompetingTask> hp2 = {{Duration::ms(1), Duration::ms(4)},
                                          {Duration::ms(2), Duration::ms(6)}};
  EXPECT_EQ(preemptive_response_time(Duration::ms(3), Duration::ms(13), hp2),
            Duration::ms(10));
}

TEST(PreemptiveRta, NoBlockingFromLowerPriority) {
  // Under NP the highest-priority task suffers blocking; preemptively it
  // does not.
  TaskGraph g;
  const TaskId s = g.add_task([] {
    Task t;
    t.name = "s";
    t.period = Duration::ms(100);
    return t;
  }());
  const TaskId hi = add(g, "hi", Duration::ms(1), Duration::ms(4), 0, 0);
  const TaskId lo = add(g, "lo", Duration::ms(3), Duration::ms(100), 0, 1);
  g.add_edge(s, hi);
  g.add_edge(s, lo);

  RtaOptions np;
  EXPECT_EQ(analyze_response_times(g, np).response_time[hi], Duration::ms(4));
  RtaOptions p;
  p.policy = SchedPolicy::kPreemptive;
  EXPECT_EQ(analyze_response_times(g, p).response_time[hi], Duration::ms(1));
  EXPECT_LE(analyze_response_times(g, p).response_time[lo],
            Duration::ms(100));
}

TEST(PreemptiveRta, JitterAware) {
  // hp (C=1, T=4, J=3): victim (C=2, T=10) sees ceil((w+3)/4) instances.
  // w = 2 + ceil(5/4)·1 = 4; ceil(7/4)=2 -> 4 ✓.  R = 4.
  std::vector<CompetingTask> hp = {
      {Duration::ms(1), Duration::ms(4), Duration::ms(3)}};
  EXPECT_EQ(preemptive_response_time(Duration::ms(2), Duration::ms(10), hp),
            Duration::ms(4));
}

TEST(PreemptiveRta, OverloadDiverges) {
  std::vector<CompetingTask> hp = {{Duration::ms(3), Duration::ms(4)}};
  EXPECT_EQ(preemptive_response_time(Duration::ms(2), Duration::ms(6), hp),
            Duration::max());
}

TEST(PreemptiveEngine, HigherPriorityPreemptsImmediately) {
  TaskGraph g;
  const TaskId s = g.add_task([] {
    Task t;
    t.name = "s";
    t.period = Duration::ms(100);
    return t;
  }());
  const TaskId lo =
      add(g, "lo", Duration::ms(5), Duration::ms(100), 0, 1);
  const TaskId hi =
      add(g, "hi", Duration::ms(1), Duration::ms(100), 0, 0, Duration::ms(1));
  g.add_edge(s, lo);
  g.add_edge(s, hi);
  g.validate();

  SimOptions opt;
  opt.policy = SchedPolicy::kPreemptive;
  opt.duration = Duration::ms(50);
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kWorstCase;
  const SimResult res = Simulator(g, opt).run();

  const JobRecord& hij = res.trace.tasks[hi].jobs.at(0);
  const JobRecord& loj = res.trace.tasks[lo].jobs.at(0);
  EXPECT_EQ(hij.start, Duration::ms(1));   // preempts lo at its release
  EXPECT_EQ(hij.finish, Duration::ms(2));
  EXPECT_EQ(loj.start, Duration::zero());
  EXPECT_EQ(loj.finish, Duration::ms(6));  // 5ms of work + 1ms suspended

  // The same scenario non-preemptively: hi waits for lo.
  opt.policy = SchedPolicy::kNonPreemptive;
  const SimResult np = Simulator(g, opt).run();
  EXPECT_EQ(np.trace.tasks[hi].jobs.at(0).start, Duration::ms(5));
}

TEST(PreemptiveEngine, ReadsStayAtFirstStart) {
  // The preempted job must not re-read inputs when it resumes: data
  // arriving during its suspension is invisible to it.
  TaskGraph g;
  Task src;
  src.name = "S";
  src.period = Duration::ms(2);
  const TaskId s = g.add_task(src);
  const TaskId victim =
      add(g, "victim", Duration::ms(5), Duration::ms(100), 0, 1);
  const TaskId preemptor =
      add(g, "preemptor", Duration::ms(1), Duration::ms(100), 0, 0,
          Duration::ms(1));
  g.add_edge(s, victim);
  g.add_edge(s, preemptor);
  g.validate();

  SimOptions opt;
  opt.policy = SchedPolicy::kPreemptive;
  opt.duration = Duration::ms(20);
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kWorstCase;
  const SimResult res = Simulator(g, opt).run();
  const JobRecord& vj = res.trace.tasks[victim].jobs.at(0);
  EXPECT_EQ(vj.start, Duration::zero());
  EXPECT_EQ(vj.finish, Duration::ms(6));  // suspended for 1ms
  ASSERT_EQ(vj.reads.size(), 1u);
  // Read the sample from t = 0, not the ones from t = 2 or 4.
  EXPECT_EQ(vj.reads[0].producer_release, Duration::zero());
}

TEST(PreemptiveEngine, ResponseTimesWithinPreemptiveRta) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const TaskGraph g = testing::random_dag_graph(12, 3, seed + 50000);
    RtaOptions ropt;
    ropt.policy = SchedPolicy::kPreemptive;
    const RtaResult rta = analyze_response_times(g, ropt);
    ASSERT_TRUE(rta.all_schedulable);

    SimOptions opt;
    opt.policy = SchedPolicy::kPreemptive;
    opt.duration = Duration::s(1);
    opt.seed = seed;
    const SimResult res = Simulator(g, opt).run();
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      EXPECT_LE(res.max_response_time[id], rta.response_time[id])
          << "seed " << seed << " task " << g.task(id).name;
    }
  }
}

class PreemptiveSafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PreemptiveSafety, DisparityWithinAgnosticBounds) {
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(12, 3, seed + 60000);
  RtaOptions ropt;
  ropt.policy = SchedPolicy::kPreemptive;
  const RtaResult rta = analyze_response_times(g, ropt);
  ASSERT_TRUE(rta.all_schedulable);
  const TaskId sink = g.sinks().front();

  // Lemma 4 assumes non-preemptive dispatch; preemptive systems use the
  // scheduling-agnostic hops with preemptive response times.
  DisparityOptions dopt;
  dopt.hop_method = HopBoundMethod::kSchedulingAgnostic;
  const Duration bound =
      analyze_time_disparity(g, sink, rta.response_time, dopt).worst_case;

  Rng rng(seed);
  randomize_offsets(g, rng);
  SimOptions opt;
  opt.policy = SchedPolicy::kPreemptive;
  opt.duration = Duration::s(2);
  opt.seed = seed;
  const SimResult res = Simulator(g, opt).run();
  EXPECT_LE(res.max_disparity[sink], bound) << "seed " << seed;
}

TEST_P(PreemptiveSafety, BackwardTimesWithinAgnosticBounds) {
  const std::uint64_t seed = GetParam();
  const TaskGraph g = testing::random_dag_graph(10, 2, seed + 70000);
  RtaOptions ropt;
  ropt.policy = SchedPolicy::kPreemptive;
  const RtaResult rta = analyze_response_times(g, ropt);
  ASSERT_TRUE(rta.all_schedulable);
  const TaskId sink = g.sinks().front();

  SimOptions opt;
  opt.policy = SchedPolicy::kPreemptive;
  opt.duration = Duration::s(1);
  opt.seed = seed;
  opt.record_trace = true;
  const SimResult res = Simulator(g, opt).run();
  for (const Path& chain : enumerate_source_chains(g, sink)) {
    const Duration w = wcbt_bound(g, chain, rta.response_time,
                                  HopBoundMethod::kSchedulingAgnostic);
    for (Duration len :
         measured_backward_times(g, res.trace, chain).lengths) {
      EXPECT_LE(len, w) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreemptiveSafety,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(EdfRta, HandComputedTwoTaskSet) {
  // A (C=1,T=10), B (C=2,T=12), implicit deadlines.  Hand-computed
  // processor-demand fixpoints: the cohort busy period is L = 3; A's only
  // candidate with B-interference is a = 2 (B's deadline coincidence),
  // where w = 3 and w − a = 1, so R_A = 1; B at a = 0 admits one A job by
  // deadline, w = 3, so R_B = 3.
  const std::vector<CompetingTask> none;
  EXPECT_EQ(edf_response_time(Duration::ms(1), Duration::ms(10), none),
            Duration::ms(1));
  const std::vector<CompetingTask> vs_b = {
      {Duration::ms(2), Duration::ms(12)}};
  EXPECT_EQ(edf_response_time(Duration::ms(1), Duration::ms(10), vs_b),
            Duration::ms(1));
  const std::vector<CompetingTask> vs_a = {
      {Duration::ms(1), Duration::ms(10)}};
  EXPECT_EQ(edf_response_time(Duration::ms(2), Duration::ms(12), vs_a),
            Duration::ms(3));
}

TEST(EdfRta, OwnJitterAddedToNominalResponse) {
  const std::vector<CompetingTask> none;
  EXPECT_EQ(edf_response_time(Duration::ms(1), Duration::ms(10), none,
                              Duration::ms(4)),
            Duration::ms(5));
}

TEST(EdfRta, OverUtilizationIsUnschedulable) {
  const std::vector<CompetingTask> other = {
      {Duration::ms(2), Duration::ms(6)}};
  EXPECT_EQ(edf_response_time(Duration::ms(3), Duration::ms(4), other),
            Duration::max());
}

TEST(EdfRta, IgnoresPrioritiesNoBlocking) {
  // Same set as PreemptiveRta.NoBlockingFromLowerPriority: under EDF the
  // 100ms-period task's deadline is always later than hi's, so hi runs
  // untouched (R = 1) despite NP-FP charging it 3ms of blocking (R = 4).
  TaskGraph g;
  const TaskId s = g.add_task([] {
    Task t;
    t.name = "s";
    t.period = Duration::ms(100);
    return t;
  }());
  const TaskId hi = add(g, "hi", Duration::ms(1), Duration::ms(4), 0, 0);
  const TaskId lo = add(g, "lo", Duration::ms(3), Duration::ms(100), 0, 1);
  g.add_edge(s, hi);
  g.add_edge(s, lo);

  RtaOptions forced;
  forced.policy = SchedPolicy::kEdf;
  const RtaResult e = analyze_response_times(g, forced);
  EXPECT_EQ(e.response_time[hi], Duration::ms(1));
  EXPECT_LE(e.response_time[lo], Duration::ms(100));

  // Per-ECU routing: the graph policy alone (RtaOptions::policy unset)
  // must select the same analysis.
  g.set_policy(0, SchedPolicy::kEdf);
  const RtaResult routed = analyze_response_times(g, RtaOptions{});
  EXPECT_EQ(routed.response_time[hi], e.response_time[hi]);
  EXPECT_EQ(routed.response_time[lo], e.response_time[lo]);
}

TEST(EdfEngine, EarliestDeadlinePreemptsRegardlessOfPriority) {
  // long (C=5, T=100, highest priority) starts at 0; short (C=1, T=50,
  // *lowest* priority) releases at 1 with absolute deadline 51 < 100.
  // EDF dispatches by deadline, so short preempts long — the exact
  // opposite of both fixed-priority disciplines.
  TaskGraph g;
  const TaskId s = g.add_task([] {
    Task t;
    t.name = "s";
    t.period = Duration::ms(100);
    return t;
  }());
  const TaskId lng = add(g, "long", Duration::ms(5), Duration::ms(100), 0, 0);
  const TaskId shrt = add(g, "short", Duration::ms(1), Duration::ms(50), 0, 1,
                          Duration::ms(1));
  g.add_edge(s, lng);
  g.add_edge(s, shrt);
  g.validate();
  g.set_policy(0, SchedPolicy::kEdf);

  SimOptions opt;  // policy unset: the simulator routes on the graph
  opt.duration = Duration::ms(40);
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kWorstCase;
  const SimResult res = Simulator(g, opt).run();

  const JobRecord& sj = res.trace.tasks[shrt].jobs.at(0);
  const JobRecord& lj = res.trace.tasks[lng].jobs.at(0);
  EXPECT_EQ(sj.start, Duration::ms(1));
  EXPECT_EQ(sj.finish, Duration::ms(2));
  EXPECT_EQ(lj.start, Duration::zero());
  EXPECT_EQ(lj.finish, Duration::ms(6));  // 5ms of work + 1ms suspended

  // Under preemptive FP the same scenario never preempts: short has the
  // lower priority and waits for long to finish.
  SimOptions fp = opt;
  fp.policy = SchedPolicy::kPreemptive;
  const SimResult fpr = Simulator(g, fp).run();
  EXPECT_EQ(fpr.trace.tasks[shrt].jobs.at(0).start, Duration::ms(5));
}

TEST(EdfEngine, ResponseTimesWithinEdfRta) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const TaskGraph g = testing::random_dag_graph(12, 3, seed + 50000);
    RtaOptions ropt;
    ropt.policy = SchedPolicy::kEdf;
    const RtaResult rta = analyze_response_times(g, ropt);
    ASSERT_TRUE(rta.all_schedulable);

    SimOptions opt;
    opt.policy = SchedPolicy::kEdf;
    opt.duration = Duration::s(1);
    opt.seed = seed;
    const SimResult res = Simulator(g, opt).run();
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      EXPECT_LE(res.max_response_time[id], rta.response_time[id])
          << "seed " << seed << " task " << g.task(id).name;
    }
  }
}

TEST(EdfEngine, MixedPolicyGraphResponseTimesWithinRta) {
  // One discipline per ECU, both the RTA and the simulator routed purely
  // by the graph's policy map.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TaskGraph g = testing::random_dag_graph(12, 3, seed + 90000);
    g.set_policy(0, SchedPolicy::kNonPreemptive);
    g.set_policy(1, SchedPolicy::kPreemptive);
    g.set_policy(2, SchedPolicy::kEdf);
    const RtaResult rta = analyze_response_times(g, RtaOptions{});
    ASSERT_TRUE(rta.all_schedulable);

    SimOptions opt;
    opt.duration = Duration::s(1);
    opt.seed = seed;
    const SimResult res = Simulator(g, opt).run();
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      EXPECT_LE(res.max_response_time[id], rta.response_time[id])
          << "seed " << seed << " task " << g.task(id).name;
    }
  }
}

TEST(PreemptiveEngine, LetUnaffectedByPolicy) {
  // LET data flow is deterministic regardless of the dispatch policy.
  TaskGraph g;
  Task src;
  src.name = "S";
  src.period = Duration::ms(10);
  const TaskId s = g.add_task(src);
  const TaskId a = add(g, "A", Duration::ms(1), Duration::ms(10), 0, 0,
                       Duration::ms(2));
  g.task(a).comm = CommSemantics::kLet;
  const TaskId b = add(g, "B", Duration::ms(1), Duration::ms(20), 0, 1);
  g.task(b).comm = CommSemantics::kLet;
  g.add_edge(s, a);
  g.add_edge(a, b);
  g.validate();

  std::vector<Duration> lengths[2];
  int i = 0;
  for (const SchedPolicy policy :
       {SchedPolicy::kNonPreemptive, SchedPolicy::kPreemptive}) {
    SimOptions opt;
    opt.policy = policy;
    opt.duration = Duration::ms(400);
    opt.record_trace = true;
    const SimResult res = Simulator(g, opt).run();
    lengths[i++] = measured_backward_times(g, res.trace, {s, a, b},
                                           Duration::ms(50))
                       .lengths;
  }
  EXPECT_EQ(lengths[0], lengths[1]);
}

}  // namespace
}  // namespace ceta
