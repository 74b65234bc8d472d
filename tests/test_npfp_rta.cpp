#include "sched/npfp_rta.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "helpers.hpp"

namespace ceta {
namespace {

// Builders -----------------------------------------------------------------

TaskId add(TaskGraph& g, const char* name, Duration wcet, Duration period,
           EcuId ecu, int prio) {
  Task t;
  t.name = name;
  t.wcet = t.bcet = wcet;
  t.period = period;
  t.ecu = ecu;
  t.priority = prio;
  return g.add_task(t);
}

TaskId add_source(TaskGraph& g, Duration period) {
  Task t;
  t.name = "src";
  t.period = period;
  return g.add_task(t);
}

// Tests ---------------------------------------------------------------------

TEST(NpfpRta, FixtureChainHandComputed) {
  // S -> A -> B, one ECU.  R(A) = W_A + blocking(W_B) = 2ms,
  // R(B) = hp interference (1ms) + W_B = 2ms.
  const TaskGraph g = testing::simple_chain_graph();
  const RtaResult rta = analyze_response_times(g);
  EXPECT_TRUE(rta.all_schedulable);
  EXPECT_EQ(rta.response_time[0], Duration::zero());  // source
  EXPECT_EQ(rta.response_time[1], Duration::ms(2));
  EXPECT_EQ(rta.response_time[2], Duration::ms(2));
}

TEST(NpfpRta, DiamondFixtureHandComputed) {
  const TaskGraph g = testing::diamond_graph();
  const RtaResult rta = analyze_response_times(g);
  EXPECT_TRUE(rta.all_schedulable);
  for (TaskId id = 1; id < g.num_tasks(); ++id) {
    EXPECT_EQ(rta.response_time[id], Duration::ms(2)) << "task " << id;
  }
}

TEST(NpfpRta, ThreeTasksOneEcu) {
  // t1 (W=2,T=10,p0), t2 (W=3,T=20,p1), t3 (W=1,T=50,p2):
  // R(t1) = 3 + 2 = 5;  R(t2) = 1 + 2 + 3 = 6;  R(t3) = 2 + 3 + 1 = 6.
  TaskGraph g;
  const TaskId s = add_source(g, Duration::ms(10));
  const TaskId t1 = add(g, "t1", Duration::ms(2), Duration::ms(10), 0, 0);
  const TaskId t2 = add(g, "t2", Duration::ms(3), Duration::ms(20), 0, 1);
  const TaskId t3 = add(g, "t3", Duration::ms(1), Duration::ms(50), 0, 2);
  g.add_edge(s, t1);
  g.add_edge(t1, t2);
  g.add_edge(t2, t3);

  const RtaResult rta = analyze_response_times(g);
  EXPECT_TRUE(rta.all_schedulable);
  EXPECT_EQ(rta.response_time[t1], Duration::ms(5));
  EXPECT_EQ(rta.response_time[t2], Duration::ms(6));
  EXPECT_EQ(rta.response_time[t3], Duration::ms(6));
}

TEST(NpfpRta, BlockingByLongLowPriorityTask) {
  // Non-preemptive: a long lower-priority job inflates the WCRT of the
  // highest-priority task.  t1 (W=1,T=10,p0), t2 (W=8,T=100,p1):
  // R(t1) = 8 + 1 = 9, R(t2) = 1 + 8 = 9.
  TaskGraph g;
  const TaskId s = add_source(g, Duration::ms(10));
  const TaskId t1 = add(g, "t1", Duration::ms(1), Duration::ms(10), 0, 0);
  const TaskId t2 = add(g, "t2", Duration::ms(8), Duration::ms(100), 0, 1);
  g.add_edge(s, t1);
  g.add_edge(t1, t2);

  const RtaResult rta = analyze_response_times(g);
  EXPECT_TRUE(rta.all_schedulable);
  EXPECT_EQ(rta.response_time[t1], Duration::ms(9));
  EXPECT_EQ(rta.response_time[t2], Duration::ms(9));
}

TEST(NpfpRta, MultiInstanceBusyPeriod) {
  // t0 (W=2,T=10,p0), t1 (W=2,T=4,p1), t2 (W=3,T=20,p2) — priorities by
  // index, deliberately not rate-monotonic.  Busy period of t1 is 15ms and
  // spans 4 instances; hand-computed R(t1) = 7 > T(t1) = 4 (deadline
  // miss), R(t0) = 5, R(t2) = 9.
  TaskGraph g;
  const TaskId s = add_source(g, Duration::ms(10));
  const TaskId t0 = add(g, "t0", Duration::ms(2), Duration::ms(10), 0, 0);
  const TaskId t1 = add(g, "t1", Duration::ms(2), Duration::ms(4), 0, 1);
  const TaskId t2 = add(g, "t2", Duration::ms(3), Duration::ms(20), 0, 2);
  g.add_edge(s, t0);
  g.add_edge(t0, t1);
  g.add_edge(t1, t2);

  const RtaResult rta = analyze_response_times(g);
  EXPECT_EQ(rta.response_time[t0], Duration::ms(5));
  EXPECT_EQ(rta.response_time[t1], Duration::ms(7));
  EXPECT_EQ(rta.response_time[t2], Duration::ms(9));
  EXPECT_TRUE(rta.schedulable[t0]);
  EXPECT_FALSE(rta.schedulable[t1]);  // 7 > 4
  EXPECT_TRUE(rta.schedulable[t2]);
  EXPECT_FALSE(rta.all_schedulable);
}

TEST(NpfpRta, OverUtilizedResourceDetected) {
  TaskGraph g;
  const TaskId s = add_source(g, Duration::ms(10));
  const TaskId t1 = add(g, "t1", Duration::ms(6), Duration::ms(10), 0, 0);
  const TaskId t2 = add(g, "t2", Duration::ms(5), Duration::ms(10), 0, 1);
  g.add_edge(s, t1);
  g.add_edge(t1, t2);

  const RtaResult rta = analyze_response_times(g);
  EXPECT_FALSE(rta.all_schedulable);
  EXPECT_EQ(rta.response_time[t1], Duration::max());
  EXPECT_EQ(rta.response_time[t2], Duration::max());
}

TEST(NpfpRta, IndependentEcusDoNotInterfere) {
  TaskGraph g;
  const TaskId s = add_source(g, Duration::ms(10));
  const TaskId t1 = add(g, "t1", Duration::ms(4), Duration::ms(10), 0, 0);
  const TaskId t2 = add(g, "t2", Duration::ms(4), Duration::ms(10), 1, 0);
  g.add_edge(s, t1);
  g.add_edge(t1, t2);

  const RtaResult rta = analyze_response_times(g);
  EXPECT_TRUE(rta.all_schedulable);
  // Alone on their ECU: R = W.
  EXPECT_EQ(rta.response_time[t1], Duration::ms(4));
  EXPECT_EQ(rta.response_time[t2], Duration::ms(4));
}

TEST(NpfpRta, SourceTasksHaveZeroResponse) {
  const TaskGraph g = testing::diamond_graph();
  const RtaResult rta = analyze_response_times(g);
  EXPECT_EQ(rta.response_time[0], Duration::zero());
}

TEST(NpfpRta, DuplicatePrioritySameEcuRejected) {
  TaskGraph g;
  const TaskId s = add_source(g, Duration::ms(10));
  const TaskId t1 = add(g, "t1", Duration::ms(1), Duration::ms(10), 0, 3);
  const TaskId t2 = add(g, "t2", Duration::ms(1), Duration::ms(10), 0, 3);
  g.add_edge(s, t1);
  g.add_edge(s, t2);
  EXPECT_THROW(analyze_response_times(g), PreconditionError);
}

TEST(NpfpRta, ResponseAtLeastWcetPlusBlocking) {
  // Property over random instances: R >= W, R >= blocking for lowest prio.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TaskGraph g = testing::random_dag_graph(12, 3, seed);
    const RtaResult rta = analyze_response_times(g);
    ASSERT_TRUE(rta.all_schedulable);
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      EXPECT_GE(rta.response_time[id], g.task(id).wcet);
    }
  }
}

TEST(ResourceUtilization, SumsPerEcu) {
  TaskGraph g;
  const TaskId s = add_source(g, Duration::ms(10));
  const TaskId t1 = add(g, "t1", Duration::ms(2), Duration::ms(10), 0, 0);
  const TaskId t2 = add(g, "t2", Duration::ms(5), Duration::ms(20), 0, 1);
  const TaskId t3 = add(g, "t3", Duration::ms(1), Duration::ms(10), 1, 0);
  g.add_edge(s, t1);
  g.add_edge(t1, t2);
  g.add_edge(t2, t3);
  const EcuIndex ecus(g);
  EXPECT_DOUBLE_EQ(resource_utilization(g, ecus.members(0)), 0.45);
  EXPECT_DOUBLE_EQ(resource_utilization(g, ecus.members(1)), 0.1);
  EXPECT_DOUBLE_EQ(resource_utilization(g, ecus.members(7)), 0.0);
  EXPECT_EQ(ecus.ecus(), (std::vector<EcuId>{0, 1}));
}

}  // namespace
}  // namespace ceta
