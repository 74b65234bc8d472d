// End-to-end safety of the analysis (the paper's headline claim):
// on randomly generated WATERS instances, the measured time disparity
// never exceeds the S-diff (Theorem 2) bound, which never exceeds the
// P-diff (Theorem 1) bound.

#include <gtest/gtest.h>

#include "disparity/analyzer.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace ceta {
namespace {

class DisparitySafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisparitySafety, SimNeverExceedsBoundsAtSink) {
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(14, 3, seed);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();

  DisparityOptions opt;
  opt.method = DisparityMethod::kForkJoin;
  const Duration sdiff = analyze_time_disparity(g, sink, rtm, opt).worst_case;
  opt.method = DisparityMethod::kIndependent;
  const Duration pdiff = analyze_time_disparity(g, sink, rtm, opt).worst_case;
  ASSERT_LE(sdiff, pdiff);

  Rng rng(seed * 7919 + 1);
  for (int run = 0; run < 3; ++run) {
    randomize_offsets(g, rng);
    SimOptions sopt;
    sopt.duration = Duration::s(2);
    sopt.seed = seed + static_cast<std::uint64_t>(run);
    sopt.exec_model = ExecTimeModel::kUniform;
    const SimResult res = Simulator(g, sopt).run();
    EXPECT_LE(res.max_disparity[sink], sdiff)
        << "seed " << seed << " run " << run;
  }
}

TEST_P(DisparitySafety, HoldsForEveryIntermediateTask) {
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(12, 3, seed + 4000);
  const ResponseTimeMap rtm = testing::response_times_of(g);

  // Bound every task that fuses at least two source chains.
  std::vector<std::pair<TaskId, Duration>> bounds;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    if (count_source_chains(g, id) < 2) continue;
    if (count_source_chains(g, id) > 500) continue;
    bounds.emplace_back(
        id, analyze_time_disparity(g, id, rtm).worst_case);
  }
  ASSERT_FALSE(bounds.empty());

  Rng rng(seed);
  randomize_offsets(g, rng);
  SimOptions sopt;
  sopt.duration = Duration::s(2);
  sopt.seed = seed;
  const SimResult res = Simulator(g, sopt).run();
  for (const auto& [task, bound] : bounds) {
    EXPECT_LE(res.max_disparity[task], bound)
        << "seed " << seed << " task " << g.task(task).name;
  }
}

TEST_P(DisparitySafety, ExtremeExecutionModelsAlsoSafe) {
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(10, 2, seed + 8000);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();
  const Duration sdiff = analyze_time_disparity(g, sink, rtm).worst_case;

  Rng rng(seed + 13);
  randomize_offsets(g, rng);
  for (ExecTimeModel model :
       {ExecTimeModel::kWorstCase, ExecTimeModel::kBestCase}) {
    SimOptions sopt;
    sopt.duration = Duration::s(2);
    sopt.seed = seed;
    sopt.exec_model = model;
    const SimResult res = Simulator(g, sopt).run();
    EXPECT_LE(res.max_disparity[sink], sdiff) << "seed " << seed;
  }
}

TEST_P(DisparitySafety, AdversarialAlternatingExecution) {
  // Alternating BCET/WCET across jobs tends to maximize pipeline jitter.
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(10, 2, seed + 12000);
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();
  const Duration sdiff = analyze_time_disparity(g, sink, rtm).worst_case;

  Rng rng(seed + 29);
  randomize_offsets(g, rng);
  SimOptions sopt;
  sopt.duration = Duration::s(2);
  sopt.seed = seed;
  sopt.exec_model = ExecTimeModel::kCustom;
  sopt.exec_hook = [](const Task& t, std::int64_t job, Rng&) {
    return (job % 2 == 0) ? t.bcet : t.wcet;
  };
  const SimResult res = Simulator(g, sopt).run();
  EXPECT_LE(res.max_disparity[sink], sdiff) << "seed " << seed;
}

TEST_P(DisparitySafety, FunnelTopologySafeToo) {
  // The Fig. 1-shaped funnel is where S-diff visibly beats P-diff; both
  // must still dominate the simulation.
  const std::uint64_t seed = GetParam();
  Rng gen_rng(seed + 16000);
  TaskGraph g = [&] {
    for (int attempt = 0; attempt < 128; ++attempt) {
      FunnelDagOptions fopt;
      fopt.num_tasks = 14;
      TaskGraph candidate = funnel_random_dag(fopt, gen_rng);
      WatersAssignOptions wopt;
      wopt.num_ecus = 3;
      assign_waters_parameters(candidate, wopt, gen_rng);
      const TaskId sink = candidate.sinks().front();
      if (count_source_chains(candidate, sink) >= 2 &&
          count_source_chains(candidate, sink) <= 500 &&
          analyze_response_times(candidate).all_schedulable) {
        return candidate;
      }
    }
    throw Error("no admissible funnel draw");
  }();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();
  DisparityOptions opt;
  opt.method = DisparityMethod::kForkJoin;
  const Duration sdiff = analyze_time_disparity(g, sink, rtm, opt).worst_case;
  opt.method = DisparityMethod::kIndependent;
  const Duration pdiff = analyze_time_disparity(g, sink, rtm, opt).worst_case;
  ASSERT_LE(sdiff, pdiff);

  Rng rng(seed * 31 + 7);
  for (int run = 0; run < 2; ++run) {
    randomize_offsets(g, rng);
    SimOptions sopt;
    sopt.duration = Duration::s(2);
    sopt.seed = seed + static_cast<std::uint64_t>(run);
    const SimResult res = Simulator(g, sopt).run();
    EXPECT_LE(res.max_disparity[sink], sdiff)
        << "seed " << seed << " run " << run;
  }
}

TEST_P(DisparitySafety, RandomFifoBuffersStaySafe) {
  // Generalized Lemma 6: FIFO buffers on arbitrary channels shift the
  // chain bounds; the buffered analysis must still dominate a simulation
  // once the FIFOs are warm.
  const std::uint64_t seed = GetParam();
  TaskGraph g = testing::random_dag_graph(10, 3, seed + 20000);
  Rng rng(seed);
  for (const Edge& e : std::vector<Edge>(g.edges().begin(), g.edges().end())) {
    if (rng.flip(0.4)) {
      g.set_buffer_size(e.from, e.to,
                        static_cast<int>(rng.uniform_int(2, 4)));
    }
  }
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const TaskId sink = g.sinks().front();
  const Duration sdiff = analyze_time_disparity(g, sink, rtm).worst_case;

  randomize_offsets(g, rng);
  SimOptions sopt;
  // Warm-up long enough for every FIFO (size <= 4, period <= 200ms).
  sopt.warmup = Duration::s(4);
  sopt.duration = Duration::s(8);
  sopt.seed = seed;
  const SimResult res = Simulator(g, sopt).run();
  EXPECT_LE(res.max_disparity[sink], sdiff) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisparitySafety,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ceta
