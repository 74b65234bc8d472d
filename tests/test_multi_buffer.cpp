// The multi-chain buffer design (AnalysisEngine::optimize_buffers).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "disparity/analyzer.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/generator.hpp"
#include "helpers.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace ceta {
namespace {

/// Three sensor chains of very different latencies fused at one task:
/// a fast camera chain, a medium radar chain, a slow lidar chain.
TaskGraph three_sensor_graph() {
  TaskGraph g;
  auto source = [&g](const char* name, Duration period) {
    Task t;
    t.name = name;
    t.period = period;
    return g.add_task(t);
  };
  auto stage = [&g](const char* name, Duration period, EcuId ecu, int prio) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = period;
    t.ecu = ecu;
    t.priority = prio;
    return g.add_task(t);
  };
  const TaskId cam = source("cam", Duration::ms(10));
  const TaskId radar = source("radar", Duration::ms(50));
  const TaskId lidar = source("lidar", Duration::ms(100));
  const TaskId pc = stage("proc_cam", Duration::ms(10), 0, 0);
  const TaskId pr = stage("proc_radar", Duration::ms(50), 1, 0);
  const TaskId pl = stage("proc_lidar", Duration::ms(100), 2, 0);
  const TaskId fuse = stage("fuse", Duration::ms(50), 3, 0);
  g.add_edge(cam, pc);
  g.add_edge(radar, pr);
  g.add_edge(lidar, pl);
  g.add_edge(pc, fuse);
  g.add_edge(pr, fuse);
  g.add_edge(pl, fuse);
  g.validate();
  return g;
}

TEST(MultiBuffer, ReducesBoundOnThreeSensorFusion) {
  const TaskGraph g = three_sensor_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId fuse = 6;
  const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(fuse);
  EXPECT_LT(d.optimized_bound, d.baseline_bound);
  // The fast camera chain gets the deepest buffer; the lidar chain none.
  ASSERT_FALSE(d.channels.empty());
  int cam_buffer = 1;
  for (const ChannelBuffer& cb : d.channels) {
    EXPECT_GT(cb.buffer_size, 1);
    EXPECT_EQ(cb.shift, g.task(cb.from).period * (cb.buffer_size - 1));
    if (cb.from == 0) cam_buffer = cb.buffer_size;  // cam -> proc_cam
  }
  EXPECT_GT(cam_buffer, 1);
}

TEST(MultiBuffer, OptimizedBoundIsSafe) {
  const TaskGraph g = three_sensor_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId fuse = 6;
  const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(fuse);

  TaskGraph buffered = g;
  apply_multi_buffer_design(buffered, d);
  // Measure with several random offset assignments after a warm-up long
  // enough for every FIFO to fill.
  Duration warmup = Duration::s(2);
  Rng rng(42);
  Duration worst = Duration::zero();
  for (int run = 0; run < 3; ++run) {
    randomize_offsets(buffered, rng);
    SimOptions opt;
    opt.warmup = warmup;
    opt.duration = warmup + Duration::s(2);
    opt.seed = static_cast<std::uint64_t>(run) + 1;
    const SimResult res = Simulator(buffered, opt).run();
    worst = std::max(worst, res.max_disparity[fuse]);
  }
  EXPECT_LE(worst, d.optimized_bound);
  EXPECT_GT(worst, Duration::zero());
}

TEST(MultiBuffer, TrivialWhenFewerThanTwoChains) {
  const TaskGraph g = testing::simple_chain_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(2);
  EXPECT_TRUE(d.channels.empty());
  EXPECT_EQ(d.optimized_bound, d.baseline_bound);
}

TEST(MultiBuffer, TrivialWhenWindowsAlreadyAligned) {
  // Symmetric diamond: both chains share the head channel — one group,
  // nothing to shift.
  const TaskGraph g = testing::diamond_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(4);
  EXPECT_TRUE(d.channels.empty());
  EXPECT_EQ(d.optimized_bound, d.baseline_bound);
}

TEST(MultiBuffer, NeverWorseOnRandomFusionGraphs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    TaskGraph g = sensor_fusion_pipeline(3, 2);
    WatersAssignOptions wopt;
    wopt.num_ecus = 3;
    assign_waters_parameters(g, wopt, rng);
    if (!analyze_response_times(g).all_schedulable) continue;
    const ResponseTimeMap rtm = testing::response_times_of(g);
    const TaskId fuse = g.sinks().front();
    const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(fuse);
    EXPECT_LE(d.optimized_bound, d.baseline_bound) << "seed " << seed;
    // Designs with channels must strictly improve (by construction).
    if (!d.channels.empty()) {
      EXPECT_LT(d.optimized_bound, d.baseline_bound) << "seed " << seed;
    }
  }
}

TEST(MultiBuffer, OptimizedBoundMatchesReferenceOnBufferedCopy) {
  // optimize_buffers re-analyzes its buffered copy with the pair kernel
  // over the baseline's chain set.  Pin that against the reference
  // analyzer on an explicitly buffered copy, at both methods; a trivial
  // design must report the unbuffered graph's bound.
  std::size_t graphs = 0;
  std::size_t designed = 0;
  for (std::uint64_t seed = 1; seed <= 120 && graphs < 40; ++seed) {
    TaskGraph g;
    if (seed % 2 == 0) {
      g = testing::random_dag_graph(10 + seed % 8, 3, seed);
    } else {
      Rng rng(seed);
      g = sensor_fusion_pipeline(2 + seed % 3, 1 + seed % 2);
      WatersAssignOptions wopt;
      wopt.num_ecus = 3;
      assign_waters_parameters(g, wopt, rng);
      if (!analyze_response_times(g).all_schedulable) continue;
    }
    const ResponseTimeMap rtm = testing::response_times_of(g);
    const TaskId sink = g.sinks().front();
    const AnalysisEngine engine(g, rtm);
    for (const DisparityMethod m :
         {DisparityMethod::kForkJoin, DisparityMethod::kIndependent}) {
      DisparityOptions opt;
      opt.method = m;
      const MultiBufferDesign d = engine.optimize_buffers(sink, opt);
      TaskGraph buffered = g;
      apply_multi_buffer_design(buffered, d);
      EXPECT_EQ(d.optimized_bound,
                analyze_time_disparity(buffered, sink, rtm, opt).worst_case)
          << "seed " << seed << " method " << static_cast<int>(m);
      if (m == DisparityMethod::kForkJoin && !d.channels.empty()) ++designed;
    }
    ++graphs;
  }
  EXPECT_GE(graphs, 30u);
  EXPECT_GE(designed, 5u);
}

TEST(MultiBuffer, RejectsPreBufferedHeadChannel) {
  TaskGraph g = three_sensor_graph();
  g.set_buffer_size(0, 3, 2);  // cam -> proc_cam
  const ResponseTimeMap rtm = testing::response_times_of(g);
  EXPECT_THROW(AnalysisEngine(g, rtm).optimize_buffers(6), PreconditionError);
}

TEST(MultiBuffer, PairwiseCaseAgreesWithAlgorithm1Direction) {
  // On a two-chain merge the multi-chain design buffers the same head
  // channel as Algorithm 1.
  const TaskGraph g = testing::random_two_chain_graph(5, 2, 77);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();
  const MultiBufferDesign d = AnalysisEngine(g, rtm).optimize_buffers(sink);
  if (d.channels.empty()) return;  // aligned already
  ASSERT_EQ(d.channels.size(), 1u);
  EXPECT_TRUE(g.is_source(d.channels[0].from));
}

}  // namespace
}  // namespace ceta
