// System-level integration: compose bus insertion, scoping, critical
// chains, requirements, sensitivity and simulation on one mid-size system
// — the same flow the full_vehicle example walks a human through, kept
// under regression coverage here.

#include <gtest/gtest.h>

#include "chain/critical.hpp"
#include "chain/latency.hpp"
#include "common/rng.hpp"
#include "disparity/analyzer.hpp"
#include "engine/incremental.hpp"
#include "engine/requirements.hpp"
#include "graph/algorithms.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "sched/bus.hpp"
#include "sched/npfp_rta.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace ceta {
namespace {

/// 3 sensor chains over 3 ECUs, rewritten through a CAN bus.
struct System {
  TaskGraph graph;
  RtaResult rta;
  TaskId fusion;
};

System build_system(std::uint64_t seed) {
  Rng rng(seed);
  for (int attempt = 0; attempt < 64; ++attempt) {
    TaskGraph g = sensor_fusion_pipeline(3, 2);
    WatersAssignOptions wopt;
    wopt.num_ecus = 3;
    assign_waters_parameters(g, wopt, rng);
    BusConfig bus;
    bus.bus_resource = 50;
    TaskGraph sys = insert_can_messages(g, bus);
    RtaResult rta = analyze_response_times(sys);
    if (!rta.all_schedulable) continue;
    const TaskId fusion = g.sinks().front();  // id preserved
    if (count_source_chains(sys, fusion) != 3) continue;
    return {std::move(sys), std::move(rta), fusion};
  }
  throw Error("build_system: no admissible draw");
}

class SystemLevel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemLevel, EndToEndFlowConsistent) {
  const System sys = build_system(GetParam());
  const TaskGraph& g = sys.graph;
  const ResponseTimeMap& rtm = sys.rta.response_time;

  // Scoped analysis agrees with the full graph (fusion is the sink here,
  // so the closure covers everything — the equality is the point).
  const SubgraphExtract scope = ancestor_subgraph(g, sys.fusion);
  EXPECT_LE(scope.graph.num_tasks(), g.num_tasks());
  const Duration full =
      analyze_time_disparity(g, sys.fusion, rtm).worst_case;
  EXPECT_EQ(full, analyze_time_disparity(
                      scope.graph, scope.from_original[sys.fusion],
                      map_response_times(scope, rtm))
                      .worst_case);

  // The critical chain's WCBT bounds every chain's WCBT and feeds the
  // data-age budget.
  const CriticalChain crit = critical_chain(g, sys.fusion, rtm);
  for (const Path& chain : enumerate_source_chains(g, sys.fusion)) {
    EXPECT_LE(wcbt_bound(g, chain, rtm), crit.wcbt);
    EXPECT_LE(max_data_age_bound(g, chain, rtm), crit.wcbt + rtm[sys.fusion]);
  }

  // A requirement at the exact bound is satisfied; one at half the bound
  // either gets fixed by buffers or stays violated — never mislabeled.
  const RequirementsReport exact =
      verify_disparity_requirements(g, {{sys.fusion, full}}, rtm);
  EXPECT_EQ(exact.outcomes[0].status, RequirementStatus::kSatisfied);
  const RequirementsReport tight =
      verify_disparity_requirements(g, {{sys.fusion, full / 2}}, rtm);
  if (tight.all_satisfied) {
    EXPECT_EQ(tight.outcomes[0].status, RequirementStatus::kFixedByBuffers);
    EXPECT_LE(tight.outcomes[0].final_bound, full / 2);
  } else {
    EXPECT_EQ(tight.outcomes[0].status, RequirementStatus::kViolated);
  }

  // Sensitivity entries cover exactly the fusion ancestors.
  AnalysisEngine engine(g);
  const auto sens = disparity_sensitivity(engine, sys.fusion);
  const auto anc = ancestors(g, sys.fusion);
  for (const SensitivityEntry& e : sens) {
    EXPECT_NE(std::find(anc.begin(), anc.end(), e.task), anc.end());
  }

  // Simulation respects the (possibly remediated) bounds.
  SimOptions opt;
  opt.warmup = Duration::s(2);
  opt.duration = Duration::s(5);
  opt.seed = GetParam();
  const SimResult res = Simulator(tight.final_graph, opt).run();
  const Duration final_bound =
      analyze_time_disparity(tight.final_graph, sys.fusion, rtm).worst_case;
  EXPECT_LE(res.max_disparity[sys.fusion], final_bound);
}

TEST_P(SystemLevel, BusMessagesAreOnEveryCrossEcuChainHop) {
  const System sys = build_system(GetParam() + 100);
  const TaskGraph& g = sys.graph;
  for (const Path& chain : enumerate_source_chains(g, sys.fusion)) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const Task& u = g.task(chain[i]);
      const Task& v = g.task(chain[i + 1]);
      if (u.ecu == kNoEcu || v.ecu == kNoEcu) continue;
      // After bus insertion no edge crosses two real ECUs directly.
      EXPECT_TRUE(u.ecu == v.ecu || u.ecu == 50 || v.ecu == 50)
          << u.name << " -> " << v.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemLevel,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace ceta
