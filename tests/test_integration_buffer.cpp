// End-to-end validation of the §IV optimization: Algorithm 1's buffer
// design lowers both the analytical bound (Theorem 3) and the measured
// disparity, and the optimized bound remains safe.

#include <gtest/gtest.h>

#include "chain/backward_bounds.hpp"
#include "disparity/buffer_opt.hpp"
#include "disparity/forkjoin.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

struct Instance {
  TaskGraph graph;
  ResponseTimeMap rtm;
  TaskId sink;
  Path lambda;
  Path nu;
};

Instance make_instance(std::uint64_t seed, std::size_t len) {
  Instance in{testing::random_two_chain_graph(len, 3, seed), {}, 0, {}, {}};
  in.rtm = testing::response_times_of(in.graph);
  in.sink = in.graph.sinks().front();
  auto chains = enumerate_source_chains(in.graph, in.sink);
  in.lambda = chains[0];
  in.nu = chains[1];
  return in;
}

Duration simulate_max_disparity(TaskGraph g, TaskId sink, Duration warmup,
                                std::uint64_t seed, int runs) {
  Rng rng(seed);
  Duration best = Duration::zero();
  for (int r = 0; r < runs; ++r) {
    randomize_offsets(g, rng);
    SimOptions opt;
    opt.warmup = warmup;
    opt.duration = warmup + Duration::s(1);
    opt.seed = seed + static_cast<std::uint64_t>(r);
    const SimResult res = Simulator(g, opt).run();
    best = std::max(best, res.max_disparity[sink]);
  }
  return best;
}

class BufferSafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferSafety, OptimizedBoundStillSafe) {
  const std::uint64_t seed = GetParam();
  Instance in = make_instance(seed, 5);
  const BufferDesign d =
      design_buffer(in.graph, in.lambda, in.nu, in.rtm);

  TaskGraph buffered = in.graph;
  apply_buffer_design(buffered, d);
  // Warm-up: FIFO fill plus the longest backward horizon.
  const Duration horizon =
      std::max(wcbt_bound(buffered, in.lambda, in.rtm),
               wcbt_bound(buffered, in.nu, in.rtm)) +
      Duration::ms(200);
  const Duration sim_b =
      simulate_max_disparity(buffered, in.sink, horizon, seed, 3);
  EXPECT_LE(sim_b, d.optimized_bound) << "seed " << seed;
}

TEST_P(BufferSafety, BufferReducesBoundAndTendsToReduceSim) {
  const std::uint64_t seed = GetParam();
  Instance in = make_instance(seed + 600, 6);
  const BufferDesign d =
      design_buffer(in.graph, in.lambda, in.nu, in.rtm);
  EXPECT_LE(d.optimized_bound, d.baseline_bound);
  if (d.buffer_size == 1) return;  // windows already aligned

  const Duration warm =
      std::max(wcbt_bound(in.graph, in.lambda, in.rtm),
               wcbt_bound(in.graph, in.nu, in.rtm)) +
      in.graph.task(d.from).period * d.buffer_size + Duration::ms(200);
  const Duration sim =
      simulate_max_disparity(in.graph, in.sink, warm, seed, 3);
  TaskGraph buffered = in.graph;
  apply_buffer_design(buffered, d);
  const Duration sim_b =
      simulate_max_disparity(buffered, in.sink, warm, seed, 3);
  // The measured disparity must stay within each configuration's bound;
  // and the buffered measurement cannot exceed the unbuffered *bound*.
  EXPECT_LE(sim, d.baseline_bound);
  EXPECT_LE(sim_b, d.optimized_bound);
}

TEST_P(BufferSafety, BufferedGraphTheorem2AlsoSafe) {
  // Running Theorem 2 directly on the buffered graph (via the Lemma 6
  // aware chain bounds) must also produce a safe bound.
  const std::uint64_t seed = GetParam();
  Instance in = make_instance(seed + 1200, 5);
  const BufferDesign d =
      design_buffer(in.graph, in.lambda, in.nu, in.rtm);
  TaskGraph buffered = in.graph;
  apply_buffer_design(buffered, d);
  const Duration rerun_bound =
      sdiff_pair_bound(buffered, in.lambda, in.nu, in.rtm).bound;

  const Duration horizon =
      std::max(wcbt_bound(buffered, in.lambda, in.rtm),
               wcbt_bound(buffered, in.nu, in.rtm)) +
      Duration::ms(200);
  const Duration sim_b =
      simulate_max_disparity(buffered, in.sink, horizon, seed, 2);
  EXPECT_LE(sim_b, rerun_bound) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferSafety,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Fig4Scenario, RaisingFrequencyDoesNotCutDisparityButBufferDoes) {
  // §IV motivating example: chain A: S1 -> P (period 30 or 10ms) -> F,
  // chain B: S2 -> Q -> F.  Raising P's frequency leaves the worst-case
  // disparity bound (essentially) unchanged; Algorithm 1's buffer cuts it.
  auto build = [](Duration p_period) {
    TaskGraph g;
    Task s1;
    s1.name = "S1";
    s1.period = Duration::ms(10);
    const TaskId s1id = g.add_task(s1);
    Task s2;
    s2.name = "S2";
    s2.period = Duration::ms(100);
    const TaskId s2id = g.add_task(s2);
    auto mk = [](const char* name, Duration period, EcuId ecu, int prio) {
      Task t;
      t.name = name;
      t.wcet = t.bcet = Duration::ms(1);
      t.period = period;
      t.ecu = ecu;
      t.priority = prio;
      return t;
    };
    const TaskId p = g.add_task(mk("P", p_period, 0, 0));
    const TaskId q = g.add_task(mk("Q", Duration::ms(100), 1, 0));
    const TaskId f = g.add_task(mk("F", Duration::ms(30), 2, 0));
    g.add_edge(s1id, p);
    g.add_edge(s2id, q);
    g.add_edge(p, f);
    g.add_edge(q, f);
    g.validate();
    return g;
  };

  const TaskGraph slow = build(Duration::ms(30));
  const TaskGraph fast = build(Duration::ms(10));
  const ResponseTimeMap rtm_slow = testing::response_times_of(slow);
  const ResponseTimeMap rtm_fast = testing::response_times_of(fast);

  const auto chains_slow = enumerate_source_chains(slow, 4);
  const auto chains_fast = enumerate_source_chains(fast, 4);
  const Duration bound_slow =
      sdiff_pair_bound(slow, chains_slow[0], chains_slow[1], rtm_slow).bound;
  const Duration bound_fast =
      sdiff_pair_bound(fast, chains_fast[0], chains_fast[1], rtm_fast).bound;

  // Raising the sampling frequency does not reduce the worst case (the
  // dominating term is the other chain's slow period).
  EXPECT_GE(bound_fast + Duration::ms(25), bound_slow);

  // The buffer design does reduce it, on both variants.
  const BufferDesign d_slow =
      design_buffer(slow, chains_slow[0], chains_slow[1], rtm_slow);
  EXPECT_LT(d_slow.optimized_bound, bound_slow);
  const BufferDesign d_fast =
      design_buffer(fast, chains_fast[0], chains_fast[1], rtm_fast);
  EXPECT_LT(d_fast.optimized_bound, bound_fast);
}

}  // namespace
}  // namespace ceta
