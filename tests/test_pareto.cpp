// The buffer-memory / disparity Pareto sweep (engine/incremental.hpp).

#include <gtest/gtest.h>

#include "engine/incremental.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

struct Instance {
  TaskGraph graph;
  ResponseTimeMap rtm;
  Path lambda;
  Path nu;
  TaskId sink;
};

Instance make(std::uint64_t seed, std::size_t len = 6) {
  Instance in{testing::random_two_chain_graph(len, 3, seed), {}, {}, {}, 0};
  in.rtm = testing::response_times_of(in.graph);
  in.sink = in.graph.sinks().front();
  auto chains = enumerate_source_chains(in.graph, in.sink);
  in.lambda = chains[0];
  in.nu = chains[1];
  return in;
}

std::vector<ParetoPoint> pareto_of(const Instance& in) {
  AnalysisEngine engine(in.graph, in.rtm);
  return buffer_pareto(engine, in.lambda, in.nu);
}

TEST(Pareto, EndpointsMatchDesign) {
  const Instance in = make(3);
  const BufferDesign d = design_buffer(in.graph, in.lambda, in.nu, in.rtm);
  const auto points = pareto_of(in);
  ASSERT_EQ(points.size(), static_cast<std::size_t>(d.buffer_size));
  EXPECT_EQ(points.front().buffer_size, 1);
  EXPECT_EQ(points.front().bound, d.baseline_bound);
  EXPECT_EQ(points.back().buffer_size, d.buffer_size);
  EXPECT_LE(points.back().bound, d.optimized_bound);
}

TEST(Pareto, BoundsNonIncreasing) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance in = make(seed + 10);
    const auto points = pareto_of(in);
    for (std::size_t i = 1; i < points.size(); ++i) {
      EXPECT_LE(points[i].bound, points[i - 1].bound) << "seed " << seed;
      EXPECT_EQ(points[i].buffer_size, points[i - 1].buffer_size + 1);
    }
  }
}

TEST(Pareto, ShiftsAreHeadPeriodMultiples) {
  const Instance in = make(7);
  const BufferDesign d = design_buffer(in.graph, in.lambda, in.nu, in.rtm);
  const Duration t_head = in.graph.task(d.from).period;
  for (const ParetoPoint& p : pareto_of(in)) {
    EXPECT_EQ(p.shift, t_head * (p.buffer_size - 1));
  }
}

TEST(Pareto, IntermediatePointIsSafe) {
  // Pick a mid-curve size, apply it, and verify by simulation.
  Instance in = make(27);
  const auto points = pareto_of(in);
  if (points.size() < 3) GTEST_SKIP() << "windows already aligned";
  const ParetoPoint& mid = points[points.size() / 2];

  const BufferDesign d = design_buffer(in.graph, in.lambda, in.nu, in.rtm);
  TaskGraph buffered = in.graph;
  buffered.set_buffer_size(d.from, d.to, mid.buffer_size);

  Rng rng(99);
  Duration worst = Duration::zero();
  for (int run = 0; run < 3; ++run) {
    randomize_offsets(buffered, rng);
    SimOptions opt;
    opt.warmup = Duration::s(3);
    opt.duration = Duration::s(5);
    opt.seed = static_cast<std::uint64_t>(run) + 1;
    worst = std::max(worst,
                     Simulator(buffered, opt).run().max_disparity[in.sink]);
  }
  EXPECT_LE(worst, mid.bound);
}

TEST(Pareto, AlignedPairIsSinglePoint) {
  const TaskGraph g = testing::diamond_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  AnalysisEngine engine(g, rtm);
  const auto points = buffer_pareto(engine, {0, 1, 2, 4}, {0, 1, 3, 4});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].buffer_size, 1);
  EXPECT_EQ(points[0].shift, Duration::zero());
}

}  // namespace
}  // namespace ceta
