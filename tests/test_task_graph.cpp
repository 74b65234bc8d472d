#include "graph/task_graph.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "helpers.hpp"

namespace ceta {
namespace {

Task simple_task(const char* name, EcuId ecu = 0, int prio = 0) {
  Task t;
  t.name = name;
  t.wcet = t.bcet = Duration::ms(1);
  t.period = Duration::ms(10);
  t.ecu = ecu;
  t.priority = prio;
  return t;
}

TEST(TaskGraph, AddTaskAssignsDenseIds) {
  TaskGraph g;
  EXPECT_EQ(g.add_task(simple_task("a")), 0u);
  EXPECT_EQ(g.add_task(simple_task("b")), 1u);
  EXPECT_EQ(g.num_tasks(), 2u);
}

TEST(TaskGraph, AutoNamesEmptyTasks) {
  TaskGraph g;
  Task t = simple_task("");
  t.name.clear();
  const TaskId id = g.add_task(t);
  EXPECT_EQ(g.task(id).name, "task0");
}

TEST(TaskGraph, AddEdgeAndAdjacency) {
  TaskGraph g;
  const TaskId a = g.add_task(simple_task("a"));
  const TaskId b = g.add_task(simple_task("b", 0, 1));
  g.add_edge(a, b);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));
  ASSERT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.successors(a)[0], b);
  ASSERT_EQ(g.predecessors(b).size(), 1u);
  EXPECT_EQ(g.predecessors(b)[0], a);
}

TEST(TaskGraph, AddEdgeRejectsBadInput) {
  TaskGraph g;
  const TaskId a = g.add_task(simple_task("a"));
  const TaskId b = g.add_task(simple_task("b"));
  EXPECT_THROW(g.add_edge(a, a), PreconditionError);        // self loop
  EXPECT_THROW(g.add_edge(a, 99), PreconditionError);       // unknown id
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), PreconditionError);        // duplicate
  EXPECT_THROW(g.add_edge(b, a, ChannelSpec{0}), PreconditionError);
}

TEST(TaskGraph, RemoveEdgeDeletesEdgeAndAdjacency) {
  TaskGraph g;
  const TaskId a = g.add_task(simple_task("a"));
  const TaskId b = g.add_task(simple_task("b", 0, 1));
  const TaskId c = g.add_task(simple_task("c", 0, 2));
  g.add_edge(a, b, ChannelSpec{2});
  g.add_edge(a, c, ChannelSpec{3});
  g.add_edge(b, c, ChannelSpec{4});

  g.remove_edge(a, c);
  EXPECT_FALSE(g.has_edge(a, c));
  EXPECT_EQ(g.num_edges(), 2u);
  // Lookups of the surviving edges still reach their own channels,
  // including the one stored after the removed edge.
  EXPECT_EQ(g.channel(a, b).buffer_size, 2);
  EXPECT_EQ(g.channel(b, c).buffer_size, 4);
  g.set_buffer_size(b, c, 5);
  EXPECT_EQ(g.edges()[1].channel.buffer_size, 5);
  // Remaining adjacency preserves insertion order.
  ASSERT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.successors(a)[0], b);
  ASSERT_EQ(g.predecessors(c).size(), 1u);
  EXPECT_EQ(g.predecessors(c)[0], b);

  EXPECT_THROW(g.remove_edge(a, c), PreconditionError);   // already gone
  EXPECT_THROW(g.remove_edge(c, a), PreconditionError);   // never existed
  EXPECT_THROW(g.remove_edge(a, 99), PreconditionError);  // unknown id
}

TEST(TaskGraph, RemoveEdgeCanStrandTaskAsInvalidSource) {
  TaskGraph g;
  Task s;
  s.name = "s";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  const TaskId a = g.add_task(simple_task("a", 0, 1));
  const TaskId b = g.add_task(simple_task("b", 0, 2));
  g.add_edge(sid, a);
  g.add_edge(a, b);
  EXPECT_NO_THROW(g.validate());

  // Removing a's only inbound edge reclassifies it as a source, but it
  // still carries WCET > 0 and an ECU — validate() must now reject.
  g.remove_edge(sid, a);
  EXPECT_TRUE(g.is_source(a));
  EXPECT_THROW(g.validate(), PreconditionError);
}

TEST(TaskGraph, ChannelSpecStoredAndMutable) {
  TaskGraph g;
  const TaskId a = g.add_task(simple_task("a"));
  const TaskId b = g.add_task(simple_task("b", 0, 1));
  g.add_edge(a, b, ChannelSpec{3});
  EXPECT_EQ(g.channel(a, b).buffer_size, 3);
  g.set_buffer_size(a, b, 5);
  EXPECT_EQ(g.channel(a, b).buffer_size, 5);
  EXPECT_THROW(g.set_buffer_size(a, b, 0), PreconditionError);
  EXPECT_THROW(g.set_buffer_size(b, a, 2), PreconditionError);
  EXPECT_THROW(g.channel(b, a), PreconditionError);
}

TEST(TaskGraph, SourcesAndSinks) {
  const TaskGraph g = testing::diamond_graph();
  const auto sources = g.sources();
  const auto sinks = g.sinks();
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(g.task(sources[0]).name, "S");
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(g.task(sinks[0]).name, "E");
  EXPECT_TRUE(g.is_source(sources[0]));
  EXPECT_TRUE(g.is_sink(sinks[0]));
  EXPECT_FALSE(g.is_source(sinks[0]));
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  const TaskGraph g = testing::diamond_graph();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), g.num_tasks());
  std::vector<std::size_t> pos(g.num_tasks());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const Edge& e : g.edges()) {
    EXPECT_LT(pos[e.from], pos[e.to]);
  }
}

TEST(TaskGraph, CycleDetection) {
  TaskGraph g;
  const TaskId a = g.add_task(simple_task("a", 0, 0));
  const TaskId b = g.add_task(simple_task("b", 0, 1));
  const TaskId c = g.add_task(simple_task("c", 0, 2));
  g.add_edge(a, b);
  g.add_edge(b, c);
  EXPECT_TRUE(g.is_dag());
  g.add_edge(c, a);
  EXPECT_FALSE(g.is_dag());
  EXPECT_THROW(g.topological_order(), PreconditionError);
  EXPECT_THROW(g.validate(), PreconditionError);
}

TEST(TaskGraph, Reaches) {
  const TaskGraph g = testing::diamond_graph();
  // ids: S=0, A=1, C=2, D=3, E=4
  EXPECT_TRUE(g.reaches(0, 4));
  EXPECT_TRUE(g.reaches(1, 2));
  EXPECT_TRUE(g.reaches(2, 2));  // reflexive
  EXPECT_FALSE(g.reaches(2, 3)); // parallel branches
  EXPECT_FALSE(g.reaches(4, 0));
}

TEST(TaskGraph, ValidateAcceptsFixtures) {
  EXPECT_NO_THROW(testing::simple_chain_graph().validate());
  EXPECT_NO_THROW(testing::diamond_graph().validate());
}

TEST(TaskGraph, ValidateRejectsExecutingSource) {
  TaskGraph g;
  Task s = simple_task("s");
  s.ecu = kNoEcu;  // source, but nonzero wcet
  const TaskId sid = g.add_task(s);
  const TaskId a = g.add_task(simple_task("a"));
  g.add_edge(sid, a);
  EXPECT_THROW(g.validate(), PreconditionError);
}

TEST(TaskGraph, ValidateRejectsUnmappedNonSource) {
  TaskGraph g;
  Task s;
  s.name = "s";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  Task a = simple_task("a");
  a.ecu = kNoEcu;
  const TaskId aid = g.add_task(a);
  g.add_edge(sid, aid);
  EXPECT_THROW(g.validate(), PreconditionError);
}

TEST(TaskGraph, ValidateRejectsDuplicatePriorities) {
  TaskGraph g;
  Task s;
  s.name = "s";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  const TaskId a = g.add_task(simple_task("a", 0, 1));
  const TaskId b = g.add_task(simple_task("b", 0, 1));  // same prio, same ecu
  g.add_edge(sid, a);
  g.add_edge(sid, b);
  EXPECT_THROW(g.validate(), PreconditionError);
}

TEST(TaskGraph, SamePriorityOnDifferentEcusIsFine) {
  TaskGraph g;
  Task s;
  s.name = "s";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  const TaskId a = g.add_task(simple_task("a", 0, 1));
  const TaskId b = g.add_task(simple_task("b", 1, 1));
  g.add_edge(sid, a);
  g.add_edge(sid, b);
  EXPECT_NO_THROW(g.validate());
}

TEST(TaskGraph, PolicyDefaultsToNonPreemptive) {
  TaskGraph g;
  g.add_task(simple_task("a"));
  EXPECT_EQ(g.policy(0), SchedPolicy::kNonPreemptive);
  EXPECT_EQ(g.policy(17), SchedPolicy::kNonPreemptive);  // never-set ECU
  EXPECT_TRUE(g.policies().empty());
}

TEST(TaskGraph, SetPolicyStoresSortedOverrides) {
  TaskGraph g;
  g.set_policy(3, SchedPolicy::kEdf);
  g.set_policy(1, SchedPolicy::kPreemptive);
  EXPECT_EQ(g.policy(1), SchedPolicy::kPreemptive);
  EXPECT_EQ(g.policy(3), SchedPolicy::kEdf);
  EXPECT_EQ(g.policy(2), SchedPolicy::kNonPreemptive);
  ASSERT_EQ(g.policies().size(), 2u);
  EXPECT_EQ(g.policies()[0].first, 1);  // canonical order: sorted by ECU
  EXPECT_EQ(g.policies()[1].first, 3);
  g.set_policy(3, SchedPolicy::kPreemptive);  // overwrite in place
  EXPECT_EQ(g.policy(3), SchedPolicy::kPreemptive);
  EXPECT_EQ(g.policies().size(), 2u);
}

TEST(TaskGraph, SetPolicyDefaultErasesOverride) {
  TaskGraph g;
  g.set_policy(0, SchedPolicy::kEdf);
  EXPECT_EQ(g.policies().size(), 1u);
  g.set_policy(0, SchedPolicy::kNonPreemptive);
  EXPECT_TRUE(g.policies().empty());
  // Erasing an override that was never set is a no-op, not an error.
  g.set_policy(5, SchedPolicy::kNonPreemptive);
  EXPECT_TRUE(g.policies().empty());
}

TEST(TaskGraph, SetPolicyRejectsNoEcu) {
  TaskGraph g;
  EXPECT_THROW(g.set_policy(kNoEcu, SchedPolicy::kEdf), PreconditionError);
}

TEST(TaskGraph, ValidateRejectsEmptyGraph) {
  TaskGraph g;
  EXPECT_THROW(g.validate(), PreconditionError);
}

TEST(ValidateTask, ParameterChecks) {
  Task t = simple_task("t");
  EXPECT_NO_THROW(validate_task(t));
  t.period = Duration::zero();
  EXPECT_THROW(validate_task(t), PreconditionError);
  t = simple_task("t");
  t.bcet = t.wcet + Duration::ns(1);
  EXPECT_THROW(validate_task(t), PreconditionError);
  t = simple_task("t");
  t.offset = t.period;  // must be < period
  EXPECT_THROW(validate_task(t), PreconditionError);
  t = simple_task("t");
  t.bcet = Duration::ns(-1);
  EXPECT_THROW(validate_task(t), PreconditionError);
}

}  // namespace
}  // namespace ceta
