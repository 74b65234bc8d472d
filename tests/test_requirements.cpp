// Requirement verification with buffer remedies (engine/requirements.hpp).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "disparity/analyzer.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/requirements.hpp"
#include "helpers.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

/// Three-sensor fusion with very different chain latencies (same fixture
/// family as test_multi_buffer).
TaskGraph three_sensor_graph() {
  TaskGraph g;
  auto source = [&g](const char* name, Duration period) {
    Task t;
    t.name = name;
    t.period = period;
    return g.add_task(t);
  };
  auto stage = [&g](const char* name, Duration period, EcuId ecu) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = period;
    t.ecu = ecu;
    return g.add_task(t);
  };
  const TaskId cam = source("cam", Duration::ms(10));
  const TaskId radar = source("radar", Duration::ms(50));
  const TaskId lidar = source("lidar", Duration::ms(100));
  const TaskId pc = stage("proc_cam", Duration::ms(10), 0);
  const TaskId pr = stage("proc_radar", Duration::ms(50), 1);
  const TaskId pl = stage("proc_lidar", Duration::ms(100), 2);
  const TaskId fuse = stage("fuse", Duration::ms(50), 3);
  g.add_edge(cam, pc);
  g.add_edge(radar, pr);
  g.add_edge(lidar, pl);
  g.add_edge(pc, fuse);
  g.add_edge(pr, fuse);
  g.add_edge(pl, fuse);
  g.validate();
  return g;
}

TEST(Requirements, SatisfiedRequirementPassesThrough) {
  const TaskGraph g = three_sensor_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const Duration bound = analyze_time_disparity(g, 6, rtm).worst_case;

  const RequirementsReport rep = verify_disparity_requirements(
      g, {{6, bound + Duration::ms(1)}}, rtm);
  ASSERT_EQ(rep.outcomes.size(), 1u);
  EXPECT_EQ(rep.outcomes[0].status, RequirementStatus::kSatisfied);
  EXPECT_EQ(rep.outcomes[0].bound, bound);
  EXPECT_EQ(rep.outcomes[0].final_bound, bound);
  EXPECT_TRUE(rep.all_satisfied);
  // No buffers added.
  for (const Edge& e : rep.final_graph.edges()) {
    EXPECT_EQ(e.channel.buffer_size, 1);
  }
}

TEST(Requirements, ViolationFixedByBuffers) {
  const TaskGraph g = three_sensor_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const Duration bound = analyze_time_disparity(g, 6, rtm).worst_case;
  const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(6);
  ASSERT_LT(d.optimized_bound, bound);

  // Ask for something between the optimized and the unoptimized bound.
  const Duration threshold = (d.optimized_bound + bound) / 2;
  const RequirementsReport rep =
      verify_disparity_requirements(g, {{6, threshold}}, rtm);
  ASSERT_EQ(rep.outcomes.size(), 1u);
  EXPECT_EQ(rep.outcomes[0].status, RequirementStatus::kFixedByBuffers);
  EXPECT_FALSE(rep.outcomes[0].buffers.empty());
  EXPECT_LE(rep.outcomes[0].final_bound, threshold);
  EXPECT_TRUE(rep.all_satisfied);
  // The final graph actually carries the buffers.
  bool buffered = false;
  for (const Edge& e : rep.final_graph.edges()) {
    if (e.channel.buffer_size > 1) buffered = true;
  }
  EXPECT_TRUE(buffered);
}

TEST(Requirements, ImpossibleThresholdReported) {
  const TaskGraph g = three_sensor_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const RequirementsReport rep =
      verify_disparity_requirements(g, {{6, Duration::ms(1)}}, rtm);
  ASSERT_EQ(rep.outcomes.size(), 1u);
  EXPECT_EQ(rep.outcomes[0].status, RequirementStatus::kViolated);
  EXPECT_FALSE(rep.all_satisfied);
  // An unhelpful remedy is not applied.
  for (const Edge& e : rep.final_graph.edges()) {
    EXPECT_EQ(e.channel.buffer_size, 1);
  }
}

TEST(Requirements, RemedyVerifiedBySimulation) {
  const TaskGraph g = three_sensor_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(6);
  const RequirementsReport rep =
      verify_disparity_requirements(g, {{6, d.optimized_bound}}, rtm);
  ASSERT_TRUE(rep.all_satisfied);

  SimOptions opt;
  opt.warmup = Duration::s(3);
  opt.duration = Duration::s(6);
  const SimResult res = Simulator(rep.final_graph, opt).run();
  EXPECT_LE(res.max_disparity[6], rep.outcomes[0].final_bound);
}

TEST(Requirements, MultipleTasksReverifiedAfterRemedies) {
  // Downstream task inherits the fusion task's disparity; a remedy for
  // one requirement must not silently break the other's verdict.
  TaskGraph g = three_sensor_graph();
  Task act;
  act.name = "act";
  act.wcet = act.bcet = Duration::ms(1);
  act.period = Duration::ms(10);
  act.ecu = 3;
  act.priority = 1;
  const TaskId act_id = g.add_task(act);
  g.add_edge(6, act_id);
  g.validate();
  const ResponseTimeMap rtm = testing::response_times_of(g);

  const Duration fuse_bound = analyze_time_disparity(g, 6, rtm).worst_case;
  const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(6);
  const std::vector<DisparityRequirement> reqs = {
      {6, d.optimized_bound},            // needs the remedy
      {act_id, fuse_bound + Duration::ms(50)},  // loose
  };
  const RequirementsReport rep = verify_disparity_requirements(g, reqs, rtm);
  ASSERT_EQ(rep.outcomes.size(), 2u);
  EXPECT_EQ(rep.outcomes[0].status, RequirementStatus::kFixedByBuffers);
  // The second outcome was re-verified against the buffered graph.
  EXPECT_LE(rep.outcomes[1].final_bound,
            rep.outcomes[1].requirement.max_disparity);
  EXPECT_TRUE(rep.all_satisfied);
}

TEST(Requirements, Preconditions) {
  const TaskGraph g = three_sensor_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  EXPECT_THROW(verify_disparity_requirements(g, {{99, Duration::ms(1)}}, rtm),
               PreconditionError);
  EXPECT_THROW(
      verify_disparity_requirements(g, {{6, Duration::ms(-1)}}, rtm),
      PreconditionError);
}

}  // namespace
}  // namespace ceta
