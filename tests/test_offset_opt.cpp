// LET offset synthesis (engine/incremental.hpp).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "disparity/exact.hpp"
#include "engine/incremental.hpp"
#include "helpers.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

/// The hand-computed fixture of test_exact: misaligned sources give 25ms.
TaskGraph misaligned_let() {
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
  return g;
}

OffsetPlan plan_offsets(const TaskGraph& g, TaskId task,
                        const OffsetPlanOptions& opt = {}) {
  AnalysisEngine engine(g);
  return plan_source_offsets(engine, task, opt);
}

TEST(OffsetPlan, EliminatesDisparityOnHarmonicFixture) {
  const TaskGraph g = misaligned_let();
  const OffsetPlan plan = plan_offsets(g, 4);
  EXPECT_EQ(plan.baseline, Duration::ms(25));
  // Harmonic periods + full offset freedom: the phases can be aligned so
  // both traced samples coincide at some multiple of the 1ms grid.
  EXPECT_LT(plan.optimized, plan.baseline);
  EXPECT_LE(plan.optimized, Duration::ms(5));
  EXPECT_GT(plan.evaluations, 1u);
  ASSERT_EQ(plan.offsets.size(), 5u);  // all closure tasks tunable
}

TEST(OffsetPlan, AppliedPlanReproducesOptimizedValue) {
  const TaskGraph g = misaligned_let();
  const OffsetPlan plan = plan_offsets(g, 4);
  TaskGraph tuned = g;
  apply_offset_plan(tuned, plan);
  tuned.validate();
  EXPECT_EQ(exact_let_disparity(tuned, 4).worst_disparity, plan.optimized);
}

TEST(OffsetPlan, SimulationConfirmsOptimizedSystem) {
  const TaskGraph g = misaligned_let();
  const OffsetPlan plan = plan_offsets(g, 4);
  TaskGraph tuned = g;
  apply_offset_plan(tuned, plan);
  SimOptions opt;
  opt.warmup = Duration::s(1);
  opt.duration = Duration::s(3);
  const SimResult res = Simulator(tuned, opt).run();
  EXPECT_EQ(res.max_disparity[4], plan.optimized);
}

TEST(OffsetPlan, NeverWorseOnRandomLetInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TaskGraph g = testing::random_two_chain_graph(4, 3, seed);
    g.set_comm_semantics(CommSemantics::kLet);
    Rng rng(seed + 3);
    randomize_offsets(g, rng);
    g.validate();
    const TaskId sink = g.sinks().front();
    const OffsetPlan plan = plan_offsets(g, sink);
    EXPECT_LE(plan.optimized, plan.baseline) << "seed " << seed;
    // Re-evaluation of the applied plan matches.
    TaskGraph tuned = g;
    apply_offset_plan(tuned, plan);
    EXPECT_EQ(exact_let_disparity(tuned, sink).worst_disparity,
              plan.optimized)
        << "seed " << seed;
  }
}

TEST(OffsetPlan, SourcesOnlyModeTouchesOnlySources) {
  const TaskGraph g = misaligned_let();
  OffsetPlanOptions opt;
  opt.tunables = OffsetTunables::kSourcesOnly;
  const OffsetPlan plan = plan_offsets(g, 4, opt);
  for (const OffsetAssignment& a : plan.offsets) {
    EXPECT_TRUE(g.is_source(a.task));
    EXPECT_LT(a.offset, g.task(a.task).period);
    EXPECT_GE(a.offset, Duration::zero());
  }
  TaskGraph tuned = g;
  apply_offset_plan(tuned, plan);
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    if (!g.is_source(id)) {
      EXPECT_EQ(tuned.task(id).offset, g.task(id).offset);
    }
  }
}

TEST(OffsetPlan, AllTasksModeAtLeastAsGoodAsSourcesOnly) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    TaskGraph g = testing::random_two_chain_graph(4, 3, seed + 40);
    g.set_comm_semantics(CommSemantics::kLet);
    Rng rng(seed);
    randomize_offsets(g, rng);
    g.validate();
    const TaskId sink = g.sinks().front();
    OffsetPlanOptions sources_only;
    sources_only.tunables = OffsetTunables::kSourcesOnly;
    const OffsetPlan restricted =
        plan_offsets(g, sink, sources_only);
    const OffsetPlan full = plan_offsets(g, sink);
    EXPECT_LE(full.optimized, restricted.optimized) << "seed " << seed;
  }
}

TEST(OffsetPlan, Preconditions) {
  const TaskGraph g = misaligned_let();
  EXPECT_THROW(plan_offsets(g, 99), PreconditionError);
  OffsetPlanOptions opt;
  opt.granularity = Duration::zero();
  EXPECT_THROW(plan_offsets(g, 4, opt), PreconditionError);
  opt = OffsetPlanOptions{};
  opt.passes = 0;
  EXPECT_THROW(plan_offsets(g, 4, opt), PreconditionError);
}

TEST(OffsetPlan, InjectedSweepFaultSurfacesVerbatim) {
  // The fault hook aborts the sweep mid-pass; the caller must receive the
  // planted message itself, not a wrapper that swallows it.
  const TaskGraph g = misaligned_let();
  OffsetPlanOptions opt;
  opt.fault_fail_after_evaluations = 2;
  try {
    plan_offsets(g, 4, opt);
    FAIL() << "expected the injected fault";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected offset-sweep fault"),
              std::string::npos)
        << e.what();
  }
  // The fault counter is per-call state: a clean rerun is unaffected.
  const OffsetPlan plan = plan_offsets(g, 4);
  EXPECT_EQ(plan.baseline, Duration::ms(25));
}

}  // namespace
}  // namespace ceta
