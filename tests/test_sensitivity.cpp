// The parameter sensitivity scan (engine/incremental.hpp).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/incremental.hpp"
#include "helpers.hpp"

namespace ceta {
namespace {

/// The Fig. 4 topology: fast chain S1 -> P -> F, slow chain S2 -> Q -> F.
TaskGraph fig4_graph() {
  TaskGraph g;
  Task s1;
  s1.name = "S1";
  s1.period = Duration::ms(10);
  const TaskId s1id = g.add_task(s1);
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ms(100);
  const TaskId s2id = g.add_task(s2);
  auto mk = [](const char* name, Duration period, EcuId ecu) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = period;
    t.ecu = ecu;
    t.priority = 0;
    return t;
  };
  const TaskId p = g.add_task(mk("P", Duration::ms(30), 0));
  const TaskId q = g.add_task(mk("Q", Duration::ms(100), 1));
  const TaskId f = g.add_task(mk("F", Duration::ms(30), 2));
  g.add_edge(s1id, p);
  g.add_edge(s2id, q);
  g.add_edge(p, f);
  g.add_edge(q, f);
  g.validate();
  return g;
}

std::vector<SensitivityEntry> scan(const TaskGraph& g, TaskId task,
                                   const SensitivityOptions& opt = {}) {
  AnalysisEngine engine(g);
  return disparity_sensitivity(engine, task, opt);
}

const SensitivityEntry* find(const std::vector<SensitivityEntry>& entries,
                             TaskId task, PerturbedParam param) {
  for (const SensitivityEntry& e : entries) {
    if (e.task == task && e.param == param) return &e;
  }
  return nullptr;
}

TEST(Sensitivity, Fig4SlowChainPeriodDominates) {
  const TaskGraph g = fig4_graph();
  const auto entries = scan(g, 4);
  // Doubling the *slow* chain's rates (S2, Q) must move the bound far
  // more than doubling the fast middle task P's rate — the paper's Fig. 4
  // observation, quantified.
  const SensitivityEntry* p = find(entries, 2, PerturbedParam::kPeriod);
  const SensitivityEntry* q = find(entries, 3, PerturbedParam::kPeriod);
  const SensitivityEntry* s2 = find(entries, 1, PerturbedParam::kPeriod);
  ASSERT_NE(p, nullptr);
  ASSERT_NE(q, nullptr);
  ASSERT_NE(s2, nullptr);
  const auto mag = [](const SensitivityEntry* e) {
    const Duration d = e->delta();
    return d < Duration::zero() ? -d : d;
  };
  EXPECT_GT(mag(q), mag(p) * 3);
  EXPECT_GT(mag(s2), mag(p) * 2);
  // The top-ranked entry is on the slow chain.
  EXPECT_TRUE(entries.front().task == 1 || entries.front().task == 3);
}

TEST(Sensitivity, WcetBarelyMattersUnderTinyUtilization) {
  // Periods dominate every bound; halving a WCET moves the bound by at
  // most O(R) (milliseconds here, vs a 100ms-scale bound).
  const TaskGraph g = fig4_graph();
  const auto entries = scan(g, 4);
  for (const SensitivityEntry& e : entries) {
    if (e.param != PerturbedParam::kWcet) continue;
    const Duration d = e.delta() < Duration::zero() ? -e.delta() : e.delta();
    EXPECT_LE(d, Duration::ms(5)) << "task " << e.task;
  }
}

TEST(Sensitivity, EntriesCoverAncestorsOnly) {
  // Sensitivity of the branch task C in the diamond must not include D.
  const TaskGraph g = testing::diamond_graph();
  const auto entries = scan(g, 2);  // C
  for (const SensitivityEntry& e : entries) {
    EXPECT_NE(e.task, 3u);  // D is not an ancestor of C
    EXPECT_NE(e.task, 4u);  // E neither
  }
  // S has no WCET entry (source), but has a period entry.
  EXPECT_NE(find(entries, 0, PerturbedParam::kPeriod), nullptr);
  EXPECT_EQ(find(entries, 0, PerturbedParam::kWcet), nullptr);
}

TEST(Sensitivity, PerturbationsKeepBaselineConsistent) {
  const TaskGraph g = testing::diamond_graph();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const Duration expected = analyze_time_disparity(g, 4, rtm).worst_case;
  for (const SensitivityEntry& e : scan(g, 4)) {
    EXPECT_EQ(e.baseline, expected);
  }
}

TEST(Sensitivity, SortedByMagnitude) {
  const TaskGraph g = fig4_graph();
  const auto entries = scan(g, 4);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (!entries[i].schedulable) continue;  // unschedulable sorted last
    const auto mag = [](const SensitivityEntry& e) {
      const Duration d = e.delta();
      return d < Duration::zero() ? -d : d;
    };
    EXPECT_GE(mag(entries[i - 1]), mag(entries[i]));
  }
}

TEST(Sensitivity, UnschedulablePerturbationFlagged) {
  // P shares ECU 0 with a heavy neighbor; halving P's period pushes the
  // ECU past 100% utilization.
  TaskGraph g = fig4_graph();
  g.task(2).wcet = g.task(2).bcet = Duration::ms(10);  // P: 10/30
  Task heavy;
  heavy.name = "heavy";
  heavy.wcet = heavy.bcet = Duration::ms(13);  // 13/30 on the same ECU
  heavy.period = Duration::ms(30);
  heavy.ecu = 0;
  heavy.priority = 1;
  const TaskId heavy_id = g.add_task(heavy);
  g.add_edge(0, heavy_id);  // fed by S1; not an ancestor of F
  g.validate();
  const auto entries = scan(g, 4);
  const SensitivityEntry* p = find(entries, 2, PerturbedParam::kPeriod);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->schedulable);
  EXPECT_FALSE(entries.empty());
  EXPECT_TRUE(entries.back().schedulable == false ||
              entries.back().delta() == Duration::zero());
}

TEST(Sensitivity, Preconditions) {
  const TaskGraph g = fig4_graph();
  EXPECT_THROW(scan(g, 99), PreconditionError);
  SensitivityOptions opt;
  opt.period_factor = 0.0;
  EXPECT_THROW(scan(g, 4, opt), PreconditionError);
}

}  // namespace
}  // namespace ceta
