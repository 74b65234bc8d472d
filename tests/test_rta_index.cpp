// ECU cohort index (sched/ecu_index.hpp) and the indexed RTA:
// the index's grouping and order, entry-by-entry equality with the
// full-scan reference RTA (tests/rta_oracle.hpp) under every policy,
// override and fault hook, scoped refreshes against full runs, and the
// `sched.rta.*` work counters — exact on WATERS graphs and linear in N on
// a 10³–10⁵-task ladder run through the text front end.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "disparity/dag_dp.hpp"
#include "graph/generator.hpp"
#include "graph/serialize.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "rta_oracle.hpp"
#include "sched/ecu_index.hpp"
#include "sched/npfp_rta.hpp"
#include "waters/generator.hpp"

namespace ceta {
namespace {

using testing::rta_by_full_scan;

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

Task ecu_task(const std::string& name, EcuId ecu, int prio, Duration wcet,
              Duration period) {
  Task t;
  t.name = name;
  t.wcet = t.bcet = wcet;
  t.period = period;
  t.ecu = ecu;
  t.priority = prio;
  return t;
}

std::vector<TaskId> ids(std::span<const TaskId> s) {
  return {s.begin(), s.end()};
}

/// A WATERS-parameterized G(n, m) DAG whose ECUs draw a random discipline.
/// Not filtered for schedulability: overloaded ECUs and diverging
/// fixpoints are part of what the differential test compares: WCETs are
/// scaled by a per-graph factor of 1–8.  Odd seeds round WCETs up to a
/// 200 µs grid, so equal-WCET competitors are common, and add release
/// jitter.
TaskGraph mixed_policy_graph(std::uint64_t seed) {
  Rng rng(seed);
  GnmDagOptions gopt;
  gopt.num_tasks = static_cast<std::size_t>(rng.uniform_int(12, 48));
  TaskGraph g = gnm_random_dag(gopt, rng);
  WatersAssignOptions wopt;
  wopt.num_ecus = static_cast<int>(rng.uniform_int(1, 5));
  assign_waters_parameters(g, wopt, rng);
  const bool ties = seed % 2 == 1;
  const std::int64_t scale = rng.uniform_int(1, 8);
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    Task& t = g.task(id);
    if (t.ecu == kNoEcu) continue;
    t.wcet = t.wcet * scale;
    if (!ties) continue;
    const Duration grid = Duration::us(200);
    t.wcet = grid * ceil_div(t.wcet.count(), grid.count());
    t.jitter = rng.uniform_duration(Duration::zero(), t.period / 10);
  }
  const EcuIndex index(g);
  for (const EcuId ecu : index.ecus()) {
    g.set_policy(ecu, static_cast<SchedPolicy>(rng.uniform_int(0, 2)));
  }
  g.validate();
  return g;
}

void expect_same_rta(const RtaResult& got, const RtaResult& want,
                     const std::string& what) {
  ASSERT_EQ(got.response_time.size(), want.response_time.size()) << what;
  for (std::size_t i = 0; i < want.response_time.size(); ++i) {
    EXPECT_EQ(got.response_time[i], want.response_time[i])
        << what << " task " << i;
    EXPECT_EQ(got.schedulable[i], want.schedulable[i])
        << what << " task " << i;
  }
  EXPECT_EQ(got.all_schedulable, want.all_schedulable) << what;
}

TEST(EcuIndex, GroupsMembersByAscendingEcuAndId) {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId src = g.add_task(s);                                   // 0
  g.add_task(ecu_task("a", 7, 0, Duration::ms(1), Duration::ms(10)));  // 1
  g.add_task(ecu_task("b", 2, 0, Duration::ms(1), Duration::ms(10)));  // 2
  g.add_task(ecu_task("c", 7, 1, Duration::ms(1), Duration::ms(10)));  // 3
  const TaskId s2 = g.add_task(s);                                    // 4
  g.add_task(ecu_task("d", 7, 2, Duration::ms(1), Duration::ms(10)));  // 5

  const EcuIndex index(g);
  EXPECT_EQ(index.num_tasks(), 6u);
  EXPECT_EQ(index.ecus(), (std::vector<EcuId>{2, 7}));
  EXPECT_EQ(ids(index.members(7)), (std::vector<TaskId>{1, 3, 5}));
  EXPECT_EQ(ids(index.members(2)), (std::vector<TaskId>{2}));
  EXPECT_TRUE(index.members(3).empty());
  EXPECT_TRUE(index.members(kNoEcu).empty());
  EXPECT_EQ(ids(index.cohort(3)), (std::vector<TaskId>{1, 3, 5}));
  // Tasks without an ECU form singleton cohorts.
  EXPECT_EQ(ids(index.cohort(src)), (std::vector<TaskId>{src}));
  EXPECT_EQ(ids(index.cohort(s2)), (std::vector<TaskId>{s2}));
  EXPECT_THROW((void)index.cohort(6), PreconditionError);
  EXPECT_TRUE(EcuIndex().ecus().empty());
}

TEST(RtaIndex, MatchesFullScanOnMixedPolicyWatersGraphs) {
  std::vector<std::pair<std::string, RtaOptions>> variants(7);
  variants[0].first = "per-ECU policies";
  variants[1].first = "forced NP-FP";
  variants[1].second.policy = SchedPolicy::kNonPreemptive;
  variants[2].first = "forced preemptive";
  variants[2].second.policy = SchedPolicy::kPreemptive;
  variants[3].first = "forced EDF";
  variants[3].second.policy = SchedPolicy::kEdf;
  variants[4].first = "fault_drop_largest_hp";
  variants[4].second.fault_drop_largest_hp = true;
  variants[5].first = "fault_edf_undercount";
  variants[5].second.fault_edf_undercount = true;
  variants[6].first = "no implicit deadline";
  variants[6].second.implicit_deadline = false;

  int overloaded = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const TaskGraph g = mixed_policy_graph(seed + 5000);
    for (const auto& [name, opt] : variants) {
      const RtaResult want = rta_by_full_scan(g, opt);
      expect_same_rta(analyze_response_times(g, opt), want,
                      "seed " + std::to_string(seed) + " " + name);
      if (!want.all_schedulable) ++overloaded;
    }
  }
  // The sweep must reach both the schedulable and the unschedulable paths.
  EXPECT_GT(overloaded, 0);
  EXPECT_LT(overloaded, 60 * static_cast<int>(variants.size()));
}

TEST(RtaIndex, FaultDropLargestHpDropsTheLowestIdOfTiedCompetitors) {
  // c has two higher-priority competitors of equal WCET; the fault hook
  // drops the first in cohort (= id) order, a, so c keeps b's shorter
  // period — a different bound than dropping b.
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId src = g.add_task(s);
  const TaskId a =
      g.add_task(ecu_task("a", 0, 0, Duration::ms(2), Duration::ms(40)));
  const TaskId b =
      g.add_task(ecu_task("b", 0, 1, Duration::ms(2), Duration::ms(5)));
  const TaskId c =
      g.add_task(ecu_task("c", 0, 2, Duration::ms(6), Duration::ms(40)));
  g.add_edge(src, a);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.set_policy(0, SchedPolicy::kPreemptive);
  g.validate();

  RtaOptions opt;
  opt.fault_drop_largest_hp = true;
  const RtaResult got = analyze_response_times(g, opt);
  expect_same_rta(got, rta_by_full_scan(g, opt), "tie");
  const Duration keep_b = preemptive_response_time(
      Duration::ms(6), Duration::ms(40), {{Duration::ms(2), Duration::ms(5)}});
  const Duration keep_a = preemptive_response_time(
      Duration::ms(6), Duration::ms(40), {{Duration::ms(2), Duration::ms(40)}});
  ASSERT_NE(keep_a, keep_b);
  EXPECT_EQ(got.response_time[c], keep_b);
}

TEST(RtaIndex, ScopedRefreshOfRandomDirtySubsetMatchesFullRun) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    TaskGraph g = mixed_policy_graph(seed + 7000);
    RtaResult res = analyze_response_times(g);
    const EcuIndex index(g);

    // Edit a few tasks, then refresh their cohorts plus a random extra
    // subset (refreshing an unaffected task must be harmless).
    Rng rng(seed);
    std::vector<bool> dirty(g.num_tasks(), false);
    for (int k = 0; k < 3; ++k) {
      const TaskId id =
          static_cast<TaskId>(rng.uniform_int(0, g.num_tasks() - 1));
      Task& t = g.task(id);
      if (t.ecu == kNoEcu) continue;
      t.wcet = t.wcet + Duration::us(rng.uniform_int(1, 500));
      t.period = t.period * rng.uniform_int(1, 2);
      for (const TaskId m : index.cohort(id)) dirty[m] = true;
    }
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      if (rng.flip(0.2)) dirty[id] = true;
    }
    std::vector<TaskId> tasks;
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      if (dirty[id]) tasks.push_back(id);
    }
    reanalyze_response_times(g, {}, index, tasks, res);
    expect_same_rta(res, analyze_response_times(g),
                    "seed " + std::to_string(seed));
  }
}

TEST(RtaIndex, CompetitorCountIsSumOfSquaredCohortSizes) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const TaskGraph g = testing::random_dag_graph(60, 4, seed + 300);
    // Count cohort sizes independently of the index.
    std::map<EcuId, std::uint64_t> n;
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      if (g.task(id).ecu != kNoEcu) ++n[g.task(id).ecu];
    }
    std::uint64_t sum_sq = 0;
    for (const auto& [ecu, k] : n) sum_sq += k * k;

    const std::uint64_t tasks0 = counter("sched.rta.tasks");
    const std::uint64_t comp0 = counter("sched.rta.competitors");
    RtaResult res = analyze_response_times(g);
    EXPECT_EQ(counter("sched.rta.tasks") - tasks0, g.num_tasks());
    EXPECT_EQ(counter("sched.rta.competitors") - comp0, sum_sq);

    // A scoped refresh of one ECU's cohort visits that cohort n_e times.
    const EcuId e = n.begin()->first;
    const EcuIndex index(g);
    const std::span<const TaskId> members = index.members(e);
    const std::uint64_t comp1 = counter("sched.rta.competitors");
    reanalyze_response_times(g, {}, index, {members.begin(), members.end()},
                             res);
    EXPECT_EQ(counter("sched.rta.competitors") - comp1, n[e] * n[e]);
  }
}

TEST(RtaIndex, LadderWorkCountersGrowLinearly) {
  // Text front end → RTA → kAuto disparity at 10³, 10⁴ and 10⁵ tasks.
  // Counts, not times: every task runs alone on its ECU, so a linear RTA
  // visits N − 1 cohort members (the source visits none); the full-scan
  // loop visited N² tasks.
  struct Rung {
    std::uint64_t n, tasks, competitors;
  };
  std::vector<Rung> rungs;
  for (const std::size_t layers : {333u, 3333u, 33333u}) {
    const std::string text = to_text(testing::diamond_ladder(layers));
    TaskGraph g = graph_from_text(text);
    g.validate();
    const std::uint64_t tasks0 = counter("sched.rta.tasks");
    const std::uint64_t comp0 = counter("sched.rta.competitors");
    const RtaResult rta = analyze_response_times(g);
    rungs.push_back({g.num_tasks(), counter("sched.rta.tasks") - tasks0,
                     counter("sched.rta.competitors") - comp0});
    ASSERT_TRUE(rta.all_schedulable);

    DisparityOptions opt;
    opt.backend = DisparityBackend::kAuto;
    const DisparityReport r = analyze_time_disparity_backend(
        g, g.sinks().front(), rta.response_time, opt);
    EXPECT_EQ(r.backend, DisparityBackend::kDagDp);
    EXPECT_GT(r.worst_case, Duration::zero());
  }
  ASSERT_EQ(rungs.size(), 3u);
  EXPECT_EQ(rungs[0].n, 1000u);
  EXPECT_EQ(rungs[2].n, 100000u);
  for (const Rung& r : rungs) {
    EXPECT_EQ(r.tasks, r.n);
    EXPECT_EQ(r.competitors, r.n - 1);
  }
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    // Tenfold tasks, tenfold work (within 1 %) — not a hundredfold.
    EXPECT_LE(100 * rungs[i].competitors * rungs[i - 1].n,
              101 * rungs[i - 1].competitors * rungs[i].n);
    EXPECT_LE(100 * rungs[i].tasks * rungs[i - 1].n,
              101 * rungs[i - 1].tasks * rungs[i].n);
  }
}

}  // namespace
}  // namespace ceta
