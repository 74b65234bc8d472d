// Monte-Carlo driver tests: the replication fleet must produce
// bit-identical aggregates for every thread count (the whole point of the
// counter-based streams + commutative merges), its histograms must agree
// with a hand-rolled single-threaded fold over run(), the analyzer
// cross-check must hold on schedulable graphs, and the fault-injection
// knob must demonstrably break it.

#include "sim/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "disparity/forkjoin.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/thread_pool.hpp"
#include "helpers.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

using ceta::testing::random_dag_graph;
using sim::EmpiricalHistogram;
using sim::MonteCarloOptions;
using sim::MonteCarloResult;
using sim::TaskMonteCarlo;
using sim::run_monte_carlo;

MonteCarloOptions small_fleet() {
  MonteCarloOptions opt;
  opt.sim.duration = Duration::ms(150);
  opt.sim.warmup = Duration::ms(20);
  opt.first_seed = 3;
  opt.replications = 12;
  opt.num_threads = 1;
  return opt;
}

void expect_same_histogram(const EmpiricalHistogram& a,
                           const EmpiricalHistogram& b, const char* what) {
  EXPECT_EQ(a.buckets, b.buckets) << what;
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.min_value, b.min_value) << what;
  EXPECT_EQ(a.max_value, b.max_value) << what;
  EXPECT_EQ(a.sum_ns, b.sum_ns) << what;
}

void expect_same_result(const MonteCarloResult& a, const MonteCarloResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.jobs_finished, b.jobs_finished);
  EXPECT_EQ(a.all_within_bounds, b.all_within_bounds);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].task, b.tasks[i].task);
    expect_same_histogram(a.tasks[i].disparity, b.tasks[i].disparity,
                          "disparity");
    expect_same_histogram(a.tasks[i].data_age, b.tasks[i].data_age,
                          "data_age");
    expect_same_histogram(a.tasks[i].reaction, b.tasks[i].reaction,
                          "reaction");
    EXPECT_EQ(a.tasks[i].bound_violations, b.tasks[i].bound_violations);
    EXPECT_EQ(a.tasks[i].worst_sample, b.tasks[i].worst_sample);
  }
}

TEST(MonteCarlo, ThreadCountDoesNotChangeAnyAggregate) {
  const TaskGraph g = random_dag_graph(10, 3, /*seed=*/5);
  MonteCarloOptions opt = small_fleet();
  opt.replications = 16;
  const MonteCarloResult serial = run_monte_carlo(g, opt);
  for (std::size_t threads : {2u, 4u, 7u}) {
    opt.num_threads = threads;
    const MonteCarloResult parallel = run_monte_carlo(g, opt);
    expect_same_result(serial, parallel);
  }
}

TEST(MonteCarlo, HistogramsMatchHandRolledFoldOverRuns) {
  const TaskGraph g = random_dag_graph(10, 3, /*seed=*/9);
  MonteCarloOptions opt = small_fleet();
  const TaskId sink = g.sinks().front();
  opt.observed = {sink};
  const MonteCarloResult mc = run_monte_carlo(g, opt);
  ASSERT_EQ(mc.tasks.size(), 1u);
  EXPECT_EQ(mc.tasks[0].task, sink);
  EXPECT_EQ(mc.replications, opt.replications);
  EXPECT_FALSE(mc.tasks[0].bound_checked);

  // Replay the same seeds through plain Simulator runs; the per-job
  // disparity count and the max must line up with the histogram.
  Simulator sim(g, opt.sim);
  std::uint64_t jobs_observed = 0;
  Duration worst = Duration::zero();
  for (std::uint64_t s = 0; s < opt.replications; ++s) {
    const SimResult r = sim.run(opt.first_seed + s);
    jobs_observed += static_cast<std::uint64_t>(r.jobs_observed[sink]);
    worst = std::max(worst, r.max_disparity[sink]);
  }
  EXPECT_EQ(mc.tasks[0].disparity.count, jobs_observed);
  EXPECT_EQ(mc.tasks[0].disparity.max_value, worst);
  EXPECT_EQ(mc.tasks[0].worst_sample, worst);
  // Data age is sampled once per observed job; every data-age sample is
  // at least the job's disparity (finish - oldest >= newest - oldest).
  EXPECT_EQ(mc.tasks[0].data_age.count, jobs_observed);
  EXPECT_GE(mc.tasks[0].data_age.max_value, mc.tasks[0].disparity.max_value);
  EXPECT_GE(mc.tasks[0].data_age.mean(), mc.tasks[0].disparity.mean());
}

TEST(MonteCarlo, MeasuredDisparityStaysWithinAnalyzerBound) {
  // The paper's Sim <= S-diff experiment as a test: on a schedulable
  // instance every empirical sample must respect the fork-join bound.
  const TaskGraph g = random_dag_graph(10, 3, /*seed=*/17);
  const AnalysisEngine engine(g);
  ASSERT_TRUE(engine.schedulable());
  const TaskId sink = g.sinks().front();
  const Duration bound = engine.disparity(sink).worst_case;

  MonteCarloOptions opt = small_fleet();
  opt.observed = {sink};
  opt.bounds = {bound};
  const MonteCarloResult mc = run_monte_carlo(g, opt);
  ASSERT_EQ(mc.tasks.size(), 1u);
  EXPECT_TRUE(mc.tasks[0].bound_checked);
  EXPECT_EQ(mc.tasks[0].bound, bound);
  EXPECT_TRUE(mc.all_within_bounds);
  EXPECT_EQ(mc.tasks[0].bound_violations, 0u);
  if (mc.tasks[0].disparity.count > 0 && bound > Duration::zero()) {
    EXPECT_GE(mc.tasks[0].tightness, 0.0);
    EXPECT_LE(mc.tasks[0].tightness, 1.0);
  }
}

TEST(MonteCarlo, FaultInjectionIsCaughtByTheBoundCheck) {
  // Same setup as above but with every sample inflated 1000x: unless the
  // measured disparity is exactly zero the cross-check must trip.  This
  // pins the knob the montecarlo_within_bounds verify property uses.
  const TaskGraph g = random_dag_graph(10, 3, /*seed=*/17);
  const AnalysisEngine engine(g);
  const TaskId sink = g.sinks().front();
  const Duration bound = engine.disparity(sink).worst_case;

  MonteCarloOptions opt = small_fleet();
  opt.observed = {sink};
  opt.bounds = {bound};
  opt.fault_scale_samples = 1000;
  const MonteCarloResult mc = run_monte_carlo(g, opt);
  ASSERT_EQ(mc.tasks.size(), 1u);
  if (mc.tasks[0].disparity.max_value > Duration::zero()) {
    EXPECT_FALSE(mc.all_within_bounds);
    EXPECT_GT(mc.tasks[0].bound_violations, 0u);
  }
}

TEST(MonteCarlo, DefaultsObserveEverySink) {
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/21);
  MonteCarloOptions opt = small_fleet();
  opt.replications = 4;
  const MonteCarloResult mc = run_monte_carlo(g, opt);
  const std::vector<TaskId> sinks = g.sinks();
  ASSERT_EQ(mc.tasks.size(), sinks.size());
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    EXPECT_EQ(mc.tasks[i].task, sinks[i]);
  }
  EXPECT_GT(mc.events, 0u);
  EXPECT_GT(mc.jobs_finished, 0u);
  EXPECT_GE(mc.wall_seconds, 0.0);
}

TEST(MonteCarlo, OptionValidation) {
  const TaskGraph g = random_dag_graph(8, 2, /*seed=*/25);
  {
    MonteCarloOptions opt = small_fleet();
    opt.replications = 0;
    EXPECT_THROW(run_monte_carlo(g, opt), InvalidOptionsError);
  }
  {
    MonteCarloOptions opt = small_fleet();
    opt.sim.record_trace = true;  // would allocate per-replication traces
    EXPECT_THROW(run_monte_carlo(g, opt), InvalidOptionsError);
  }
  {
    MonteCarloOptions opt = small_fleet();
    opt.observed = {static_cast<TaskId>(g.num_tasks())};  // out of range
    EXPECT_THROW(run_monte_carlo(g, opt), InvalidOptionsError);
  }
  {
    MonteCarloOptions opt = small_fleet();
    opt.bounds = {Duration::ms(1)};  // bounds without explicit observed
    EXPECT_THROW(run_monte_carlo(g, opt), InvalidOptionsError);
  }
  {
    MonteCarloOptions opt = small_fleet();
    opt.observed = {g.sinks().front()};
    opt.bounds = {Duration::ms(1), Duration::ms(2)};  // not parallel
    EXPECT_THROW(run_monte_carlo(g, opt), InvalidOptionsError);
  }
  {
    MonteCarloOptions opt = small_fleet();
    opt.fault_scale_samples = 0;
    EXPECT_THROW(run_monte_carlo(g, opt), InvalidOptionsError);
  }
  {
    MonteCarloOptions opt = small_fleet();
    opt.sim.duration = Duration::zero();  // sim options validate too
    EXPECT_THROW(run_monte_carlo(g, opt), InvalidOptionsError);
  }
}

// The TSan target: enough replications across enough threads that a
// data race in the fan-out/merge path would be seen by the sanitizer,
// while staying cheap enough for the default test pass.
TEST(MonteCarlo, StressFleetAcrossThreads) {
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/33);
  MonteCarloOptions opt;
  opt.sim.duration = Duration::ms(60);
  opt.sim.warmup = Duration::ms(10);
  opt.first_seed = 1;
  opt.replications = 64;
  opt.num_threads = 4;
  const MonteCarloResult mc = run_monte_carlo(g, opt);
  EXPECT_EQ(mc.replications, 64u);
  EXPECT_GT(mc.events, 0u);
  // And the stress result is still the deterministic one.
  opt.num_threads = 3;
  expect_same_result(mc, run_monte_carlo(g, opt));
}

TEST(MonteCarlo, ThreadCountAboveCapIsRejectedBeforeAnyWorkerStarts) {
  // The pool constructor refuses more than kMaxThreads workers up front,
  // so a wrapped or mistyped count never spawns a thread.
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/33);
  MonteCarloOptions opt = small_fleet();
  opt.replications = 2;
  opt.num_threads = ThreadPool::kMaxThreads + 1;
  EXPECT_THROW((void)run_monte_carlo(g, opt), PreconditionError);
}

}  // namespace
}  // namespace ceta
