// The safety matrix: `Sim ≤ bound` must hold for every combination of
// dispatch policy, communication semantics and topology family.  One
// parameterized suite sweeps the full cross product — the broadest
// guardrail in the test suite.

#include <gtest/gtest.h>

#include <tuple>

#include "disparity/analyzer.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "sched/npfp_rta.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace ceta {
namespace {

enum class Topology { kGnm, kFunnel, kTwoChain };

using Combo = std::tuple<SchedPolicy, CommSemantics, Topology, std::uint64_t>;

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto& [policy, comm, topo, seed] = info.param;
  std::string out;
  out += policy == SchedPolicy::kPreemptive ? "Preemptive" : "NonPreemptive";
  out += comm == CommSemantics::kLet ? "Let" : "Implicit";
  out += topo == Topology::kGnm      ? "Gnm"
         : topo == Topology::kFunnel ? "Funnel"
                                     : "TwoChain";
  out += "Seed" + std::to_string(seed);
  return out;
}

TaskGraph make_topology(Topology topo, Rng& rng) {
  switch (topo) {
    case Topology::kGnm: {
      GnmDagOptions opt;
      opt.num_tasks = 10;
      return gnm_random_dag(opt, rng);
    }
    case Topology::kFunnel: {
      FunnelDagOptions opt;
      opt.num_tasks = 10;
      return funnel_random_dag(opt, rng);
    }
    case Topology::kTwoChain:
      return merge_chains_at_sink(4, 4);
  }
  throw Error("unreachable");
}

class MatrixSafety : public ::testing::TestWithParam<Combo> {};

TEST_P(MatrixSafety, SimWithinBound) {
  const auto& [policy, comm, topo, seed] = GetParam();
  Rng rng(seed * 1009 + static_cast<std::uint64_t>(topo) * 31 + 7);

  TaskGraph g = [&] {
    for (int attempt = 0; attempt < 128; ++attempt) {
      TaskGraph candidate = make_topology(topo, rng);
      WatersAssignOptions wopt;
      wopt.num_ecus = 3;
      assign_waters_parameters(candidate, wopt, rng);
      candidate.set_comm_semantics(comm);
      const TaskId sink = candidate.sinks().front();
      if (count_source_chains(candidate, sink) < 2 ||
          count_source_chains(candidate, sink) > 500) {
        continue;
      }
      RtaOptions ropt;
      ropt.policy = policy;
      if (analyze_response_times(candidate, ropt).all_schedulable) {
        return candidate;
      }
    }
    throw Error("no admissible draw");
  }();

  RtaOptions ropt;
  ropt.policy = policy;
  const RtaResult rta = analyze_response_times(g, ropt);
  const TaskId sink = g.sinks().front();

  DisparityOptions dopt;
  // Lemma 4's refinements assume non-preemptive dispatch.
  if (policy == SchedPolicy::kPreemptive) {
    dopt.hop_method = HopBoundMethod::kSchedulingAgnostic;
  }
  const Duration bound =
      analyze_time_disparity(g, sink, rta.response_time, dopt).worst_case;

  randomize_offsets(g, rng);
  SimOptions sopt;
  sopt.policy = policy;
  sopt.duration = Duration::s(2);
  sopt.seed = seed;
  const SimResult res = Simulator(g, sopt).run();
  EXPECT_LE(res.max_disparity[sink], bound);
  EXPECT_GT(res.jobs_observed[sink], 0);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, MatrixSafety,
    ::testing::Combine(
        ::testing::Values(SchedPolicy::kNonPreemptive,
                          SchedPolicy::kPreemptive),
        ::testing::Values(CommSemantics::kImplicit, CommSemantics::kLet),
        ::testing::Values(Topology::kGnm, Topology::kFunnel,
                          Topology::kTwoChain),
        ::testing::Range<std::uint64_t>(1, 4)),
    combo_name);

}  // namespace
}  // namespace ceta
