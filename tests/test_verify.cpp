// Differential-verification harness: the clean campaign finds nothing on
// the real analyses, the injected-fault campaign *must* find something
// (and shrink it small), fixtures round-trip, and capacity limits are
// skipped-and-counted rather than fatal.

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "graph/task_graph.hpp"
#include "helpers.hpp"
#include "verify/fixture.hpp"
#include "verify/property_checker.hpp"
#include "verify/shrink.hpp"

namespace ceta {
namespace {

using verify::CheckerOptions;
using verify::CheckerReport;
using verify::FaultInjection;
using verify::Fixture;
using verify::ProbeConfig;
using verify::Property;
using verify::PropertyChecker;
using verify::PropertyOutcome;

TEST(PropertyNames, RoundTrip) {
  for (std::size_t i = 0; i < verify::kNumProperties; ++i) {
    const auto p = static_cast<Property>(i);
    const char* name = verify::property_name(p);
    ASSERT_NE(name, nullptr);
    const auto back = verify::property_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(verify::property_from_name("no_such_property").has_value());
}

TEST(PropertyChecker, CleanCampaignFindsNoViolations) {
  CheckerOptions opt;
  opt.seed = 7;
  opt.trials = 30;
  opt.max_tasks = 10;
  PropertyChecker checker(opt);
  const CheckerReport report = checker.run();
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? std::string("?")
                                   : violation_report(report.violations[0]));
  EXPECT_EQ(report.stats.trials, opt.trials);
  EXPECT_GT(report.stats.graphs_checked, 0u);
  EXPECT_GT(report.stats.properties_checked, 0u);
}

TEST(PropertyChecker, HandGraphNeverViolates) {
  // Every property either holds or legitimately skips on the hand-built
  // diamond; none may flag a violation.
  const TaskGraph g = testing::diamond_graph();
  const TaskId sink = 4;
  const ProbeConfig cfg;
  for (std::size_t i = 0; i < verify::kNumProperties; ++i) {
    const auto p = static_cast<Property>(i);
    const PropertyOutcome out = verify::check_property(p, g, sink, cfg);
    EXPECT_FALSE(out.violated())
        << verify::property_name(p) << ": " << out.detail;
  }
}

TEST(PropertyChecker, InjectedFaultIsCaughtAndShrunk) {
  // The kDropHeadPeriod mutation weakens the analytical bounds by one head
  // period; the oracles must notice within a modest fixed-seed campaign,
  // and the shrinker must get the counterexample down to a handful of
  // tasks.
  CheckerOptions opt;
  opt.seed = 42;
  opt.trials = 60;
  opt.probe.fault = FaultInjection::kDropHeadPeriod;
  opt.max_violations = 1;
  PropertyChecker checker(opt);
  const CheckerReport report = checker.run();
  ASSERT_FALSE(report.ok())
      << "injected off-by-one survived " << report.stats.trials << " trials";
  const verify::Violation& v = report.violations.front();
  EXPECT_LE(v.graph.num_tasks(), 5u);
  EXPECT_GE(v.original_tasks, v.graph.num_tasks());
  EXPECT_LT(v.task, v.graph.num_tasks());
  EXPECT_NO_THROW(v.graph.validate());
  EXPECT_FALSE(v.detail.empty());
  // The shrunken instance still fails the same property when re-checked
  // through the pure entry point (this is what a committed fixture does).
  ProbeConfig cfg = opt.probe;
  cfg.sim_seed = v.sim_seed;
  EXPECT_TRUE(verify::check_property(v.property, v.graph, v.task, cfg)
                  .violated());
}

TEST(PropertyChecker, InjectedExploreFaultIsCaughtAndShrunk) {
  // kSkipExploreRollback desynchronizes the explorer's engine from its
  // config mirror; the explored_configs_revalidate property must catch the
  // resulting non-replayable archive entries within a fixed-seed campaign,
  // and the shrunk fixture must still fail through the pure entry point.
  CheckerOptions opt;
  opt.seed = 42;
  opt.trials = 40;
  opt.probe.fault = FaultInjection::kSkipExploreRollback;
  opt.max_violations = 1;
  PropertyChecker checker(opt);
  const CheckerReport report = checker.run();
  ASSERT_FALSE(report.ok())
      << "skipped rollback survived " << report.stats.trials << " trials";
  const verify::Violation& v = report.violations.front();
  EXPECT_EQ(v.property, Property::kExploredConfigsRevalidate);
  EXPECT_GE(v.original_tasks, v.graph.num_tasks());
  EXPECT_NO_THROW(v.graph.validate());
  ProbeConfig cfg = opt.probe;
  cfg.sim_seed = v.sim_seed;
  EXPECT_TRUE(verify::check_property(v.property, v.graph, v.task, cfg)
                  .violated());
}

TEST(PropertyChecker, InjectedPreemptiveFaultIsCaughtAndShrunk) {
  // kDropPreemptiveInterference removes the largest higher-priority
  // interferer from every preemptive busy-window fixpoint; on the checker's
  // mixed-policy twins the simulator must observe a response time above the
  // weakened WCRT within a fixed-seed campaign, and the shrunk fixture must
  // still fail through the pure entry point.
  CheckerOptions opt;
  opt.seed = 42;
  opt.trials = 80;
  opt.max_tasks = 10;
  opt.probe.fault = FaultInjection::kDropPreemptiveInterference;
  opt.max_violations = 1;
  PropertyChecker checker(opt);
  const CheckerReport report = checker.run();
  ASSERT_FALSE(report.ok()) << "dropped preemptive interference survived "
                            << report.stats.trials << " trials";
  const verify::Violation& v = report.violations.front();
  EXPECT_EQ(v.property, Property::kRtaPolicyMatchesSim);
  EXPECT_GE(v.original_tasks, v.graph.num_tasks());
  EXPECT_NO_THROW(v.graph.validate());
  ProbeConfig cfg = opt.probe;
  cfg.sim_seed = v.sim_seed;
  EXPECT_TRUE(verify::check_property(v.property, v.graph, v.task, cfg)
                  .violated());
}

TEST(PropertyChecker, InjectedEdfFaultIsCaughtAndShrunk) {
  // kEdfUndercount shaves one job off every EDF deadline-capped
  // interference term; rta_policy_matches_sim must catch the underestimate
  // on the EDF ECUs of its mixed-policy twins.
  CheckerOptions opt;
  opt.seed = 42;
  opt.trials = 80;
  opt.max_tasks = 10;
  opt.probe.fault = FaultInjection::kEdfUndercount;
  opt.max_violations = 1;
  PropertyChecker checker(opt);
  const CheckerReport report = checker.run();
  ASSERT_FALSE(report.ok()) << "EDF interference undercount survived "
                            << report.stats.trials << " trials";
  const verify::Violation& v = report.violations.front();
  EXPECT_EQ(v.property, Property::kRtaPolicyMatchesSim);
  EXPECT_GE(v.original_tasks, v.graph.num_tasks());
  EXPECT_NO_THROW(v.graph.validate());
  ProbeConfig cfg = opt.probe;
  cfg.sim_seed = v.sim_seed;
  EXPECT_TRUE(verify::check_property(v.property, v.graph, v.task, cfg)
                  .violated());
}

TEST(PropertyChecker, InjectedMcFaultIsCaughtByMonteCarloProperty) {
  // kCorruptMcSamples inflates every Monte-Carlo disparity sample 1000x;
  // on a graph with any measured disparity at all, the empirical samples
  // must then blow through the S-diff bound.  Checked on the diamond
  // directly — no campaign needed.
  const TaskGraph g = testing::diamond_graph();
  const TaskId sink = 4;
  ProbeConfig cfg;
  cfg.fault = FaultInjection::kCorruptMcSamples;
  const PropertyOutcome out = verify::check_property(
      Property::kMonteCarloWithinBounds, g, sink, cfg);
  ASSERT_TRUE(out.violated()) << out.detail;
  EXPECT_NE(out.detail.find("monte-carlo"), std::string::npos) << out.detail;
}

TEST(Fixture, RoundTripsThroughText) {
  Fixture f;
  f.property = Property::kSimWithinBound;
  f.task = "E";
  f.sim_seed = 12345;
  f.detail = "sim 12.4ms > S-diff 11.1ms";
  f.graph = testing::diamond_graph();
  const std::string text = verify::to_text(f);
  const Fixture back = verify::fixture_from_text(text);
  EXPECT_EQ(back.property, Property::kSimWithinBound);
  EXPECT_EQ(back.task, "E");
  EXPECT_EQ(back.sim_seed, 12345u);
  EXPECT_EQ(back.detail, f.detail);
  EXPECT_EQ(back.graph.num_tasks(), f.graph.num_tasks());
  EXPECT_EQ(back.graph.task(verify::fixture_task(back)).name, "E");
}

TEST(Fixture, RejectsMissingDirectives) {
  EXPECT_THROW(verify::fixture_from_text("task a 0 0 1000000 0 0 -1\n"),
               PreconditionError);
}

TEST(Fixture, RejectsSimSeedsThatAreNotWholeUnsignedIntegers) {
  Fixture f;
  f.property = Property::kSimWithinBound;
  f.task = "E";
  f.graph = testing::diamond_graph();
  const std::string text = verify::to_text(f);
  const std::string good = "# sim-seed: " + std::to_string(f.sim_seed) + "\n";
  const std::size_t at = text.find(good);
  ASSERT_NE(at, std::string::npos);
  // Neither a trailing suffix nor a sign makes a valid seed.
  for (const std::string bad : {"12abc", "-1"}) {
    std::string edited = text;
    edited.replace(at, good.size(), "# sim-seed: " + bad + "\n");
    try {
      (void)verify::fixture_from_text(edited);
      ADD_FAILURE() << "accepted sim-seed '" << bad << "'";
    } catch (const PreconditionError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line 4: malformed sim-seed '" + bad + "'"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(Shrink, ReducesToPredicateMinimum) {
  // A synthetic predicate that only counts tasks: the shrinker must drive
  // the 9-task two-chain instance down to exactly the predicate's floor.
  const TaskGraph g = testing::random_two_chain_graph(4, 2, /*seed=*/3);
  const TaskId sink = g.sinks().front();
  ASSERT_GE(g.num_tasks(), 4u);
  const auto still_fails = [](const TaskGraph& cand, TaskId) {
    return cand.num_tasks() >= 4;
  };
  const verify::ShrinkResult res =
      verify::shrink_counterexample(g, sink, still_fails);
  EXPECT_EQ(res.graph.num_tasks(), 4u);
  EXPECT_NO_THROW(res.graph.validate());
  EXPECT_LT(res.task, res.graph.num_tasks());
  EXPECT_GT(res.attempts, 0u);
}

/// Two sources with huge coprime prime periods: the exact oracle's
/// hyperperiod overflows / exceeds the release cap, which must surface as
/// a counted capacity skip, never an error.
TaskGraph coprime_period_graph() {
  TaskGraph g;
  Task s1;
  s1.name = "S1";
  s1.period = Duration::ns(999'999'937);
  g.add_task(s1);
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ns(1'000'000'007);
  g.add_task(s2);
  Task f;
  f.name = "F";
  f.wcet = f.bcet = Duration::us(100);
  f.period = Duration::ms(1);
  f.ecu = 0;
  f.priority = 0;
  f.comm = CommSemantics::kLet;
  const TaskId fid = g.add_task(f);
  g.add_edge(0, fid);
  g.add_edge(1, fid);
  g.validate();
  return g;
}

TEST(PropertyChecker, CoprimePeriodsAreCapacitySkippedNotFatal) {
  const TaskGraph g = coprime_period_graph();
  const TaskId sink = g.sinks().front();
  const ProbeConfig cfg;
  const PropertyOutcome out =
      verify::check_property(Property::kExactMatchesSim, g, sink, cfg);
  EXPECT_EQ(out.status, PropertyOutcome::Status::kSkipped) << out.detail;
  EXPECT_TRUE(out.capacity_skip) << out.detail;

  // Through the campaign accumulator the same skip is counted, not fatal.
  PropertyChecker checker;
  CheckerReport report;
  checker.check_instance(g, sink, cfg, report);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.stats.skipped_capacity, 0u);
}

}  // namespace
}  // namespace ceta
