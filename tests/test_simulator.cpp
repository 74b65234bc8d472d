// Simulator API tests: the resettable front door must be a pure function
// of (graph, options, seed) — reusing one instance across seeds is
// bit-identical to constructing fresh simulators, 100-seed sweeps are
// trace-identical to the test-only reference engine
// (sim_oracle/reference_engine.hpp) under every dispatch policy, and
// run_batch merges are exactly the fold of the individual runs.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "helpers.hpp"
#include "sched/npfp_rta.hpp"
#include "sim_oracle/reference_engine.hpp"
#include "waters/generator.hpp"

namespace ceta {
namespace {

using ceta::testing::random_dag_graph;

/// Field-by-field equality of two results, including the full trace
/// (every job's release/start/finish and every read link).
void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.max_disparity, b.max_disparity) << what;
  EXPECT_EQ(a.jobs_observed, b.jobs_observed) << what;
  EXPECT_EQ(a.jobs_finished, b.jobs_finished) << what;
  EXPECT_EQ(a.max_response_time, b.max_response_time) << what;
  EXPECT_EQ(a.preemptions, b.preemptions) << what;
  ASSERT_EQ(a.trace.tasks.size(), b.trace.tasks.size()) << what;
  for (std::size_t t = 0; t < a.trace.tasks.size(); ++t) {
    const std::vector<JobRecord>& ja = a.trace.tasks[t].jobs;
    const std::vector<JobRecord>& jb = b.trace.tasks[t].jobs;
    ASSERT_EQ(ja.size(), jb.size()) << what << " task " << t;
    for (std::size_t k = 0; k < ja.size(); ++k) {
      EXPECT_EQ(ja[k].index, jb[k].index) << what;
      EXPECT_EQ(ja[k].release, jb[k].release) << what;
      EXPECT_EQ(ja[k].start, jb[k].start) << what;
      EXPECT_EQ(ja[k].finish, jb[k].finish) << what;
      ASSERT_EQ(ja[k].reads.size(), jb[k].reads.size()) << what;
      for (std::size_t r = 0; r < ja[k].reads.size(); ++r) {
        EXPECT_EQ(ja[k].reads[r].from, jb[k].reads[r].from) << what;
        EXPECT_EQ(ja[k].reads[r].producer_job, jb[k].reads[r].producer_job)
            << what;
        EXPECT_EQ(ja[k].reads[r].producer_release,
                  jb[k].reads[r].producer_release)
            << what;
      }
    }
  }
}

/// A schedulable 20-task WATERS graph on 4 ECUs (seed 7): the first
/// admissible draw of a G(n, m) DAG with WATERS periods and WCETs.
TaskGraph waters_graph_20() {
  Rng rng(7);
  for (;;) {
    GnmDagOptions gopt;
    gopt.num_tasks = 20;
    TaskGraph g = gnm_random_dag(gopt, rng);
    WatersAssignOptions wopt;
    wopt.num_ecus = 4;
    assign_waters_parameters(g, wopt, rng);
    if (analyze_response_times(g).all_schedulable) return g;
  }
}

/// ECUs in order of first appearance by task id.
std::vector<EcuId> ecus_by_first_appearance(const TaskGraph& g) {
  std::vector<EcuId> order;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const EcuId e = g.task(id).ecu;
    if (e != kNoEcu &&
        std::find(order.begin(), order.end(), e) == order.end()) {
      order.push_back(e);
    }
  }
  return order;
}

SimOptions traced_options(Duration duration) {
  SimOptions opt;
  opt.duration = duration;
  opt.record_trace = true;
  return opt;
}

TEST(Simulator, ResetReuseMatchesFreshConstruction) {
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/5);
  const SimOptions opt = traced_options(Duration::ms(300));
  Simulator reused(g, opt);
  for (std::uint64_t seed : {7u, 3u, 7u, 100u, 1u}) {
    const SimResult warm = reused.run(seed);
    const SimResult fresh = Simulator(g, opt).run(seed);
    expect_identical(warm, fresh, "seed " + std::to_string(seed));
  }
}

TEST(Simulator, ResetIsIdempotentAndSurvivesAbandonedRuns) {
  const TaskGraph g = random_dag_graph(10, 2, /*seed=*/11);
  {
    SimOptions opt = traced_options(Duration::ms(300));
    opt.max_jobs = 5;  // guarantees a mid-run CapacityError
    Simulator sim(g, opt);
    try {
      (void)sim.run(1);
      ADD_FAILURE() << "max_jobs = 5 did not throw";
    } catch (const CapacityError& e) {
      EXPECT_NE(std::string(e.what()).find("Simulator::run"),
                std::string::npos)
          << e.what();
    }
    sim.reset();
    // The abandoned run left nothing behind: the replay fails the same
    // way instead of tripping over stale queue/arena state.
    EXPECT_THROW(sim.run(1), CapacityError);
  }
  const SimOptions opt = traced_options(Duration::ms(300));
  Simulator sim(g, opt);
  (void)sim.run(3);
  sim.reset();
  sim.reset();  // reset is idempotent
  expect_identical(sim.run(9), Simulator(g, opt).run(9),
                   "run after explicit resets");
}

TEST(Simulator, HundredSeedSweepMatchesReferenceEngine) {
  // The acceptance gate of the rewrite: across 100 seeds the new core and
  // the verbatim pre-rewrite engine produce field-identical results and
  // traces (same event order, same reads, same disparity stamps).
  const TaskGraph g = random_dag_graph(10, 3, /*seed=*/17);
  SimOptions opt = traced_options(Duration::ms(120));
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    opt.seed = seed;
    const SimResult oldr = sim::simulate_reference(g, opt);
    const SimResult newr = Simulator(g, opt).run();
    expect_identical(oldr, newr, "seed " + std::to_string(seed));
  }

  // A 20-task WATERS graph whose ECUs first appear out of id order: the
  // reference numbers ECUs by first appearance, the Simulator by
  // ascending EcuId, so the dense indices differ and the sweep shows the
  // numbering stays invisible.  One Simulator is reused across seeds.
  const TaskGraph w = waters_graph_20();
  ASSERT_EQ(ecus_by_first_appearance(w), (std::vector<EcuId>{3, 2, 0, 1}));
  SimOptions wopt = traced_options(Duration::ms(400));
  Simulator simulator(w, wopt);
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    wopt.seed = seed;
    expect_identical(sim::simulate_reference(w, wopt), simulator.run(seed),
                     "WATERS seed " + std::to_string(seed));
  }
}

TEST(Simulator, ReferenceEquivalencePreemptiveAndLet) {
  // The sweep above runs the default policy; cover the preemptive and EDF
  // dispatchers and LET channels (publish events) against the reference
  // too, seeds 1..25 each.
  TaskGraph g = random_dag_graph(10, 2, /*seed=*/23);
  for (TaskId id = 0; id < static_cast<TaskId>(g.num_tasks()); ++id) {
    if (id % 2 == 0) g.task(id).comm = CommSemantics::kLet;
  }
  SimOptions opt = traced_options(Duration::ms(120));
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    opt.seed = seed;
    opt.policy = SchedPolicy::kNonPreemptive;
    expect_identical(sim::simulate_reference(g, opt), Simulator(g, opt).run(),
                     "LET seed " + std::to_string(seed));
    opt.policy = SchedPolicy::kPreemptive;
    expect_identical(sim::simulate_reference(g, opt), Simulator(g, opt).run(),
                     "preemptive seed " + std::to_string(seed));
    opt.policy = SchedPolicy::kEdf;
    expect_identical(sim::simulate_reference(g, opt), Simulator(g, opt).run(),
                     "EDF seed " + std::to_string(seed));
  }

  // The graph above is so lightly loaded that it never preempts, so all
  // three overrides replay the same trace.  Scale the 20-task WATERS
  // graph's execution times 16x (peak ECU utilization about 0.56) so
  // dispatch order depends on the policy, then check the preemptive and
  // EDF overrides and mixed per-ECU policies set on the graph itself (no
  // override), on ECUs the two engines number differently.
  TaskGraph loaded = waters_graph_20();
  for (TaskId id = 0; id < static_cast<TaskId>(loaded.num_tasks()); ++id) {
    loaded.task(id).bcet = loaded.task(id).bcet * 16;
    loaded.task(id).wcet = loaded.task(id).wcet * 16;
  }
  TaskGraph mixed = loaded;
  mixed.set_policy(0, SchedPolicy::kPreemptive);
  mixed.set_policy(1, SchedPolicy::kEdf);
  mixed.set_policy(2, SchedPolicy::kNonPreemptive);
  mixed.set_policy(3, SchedPolicy::kEdf);
  SimOptions lopt = traced_options(Duration::ms(400));
  std::int64_t mixed_preemptions = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    lopt.seed = seed;
    lopt.policy = SchedPolicy::kPreemptive;
    expect_identical(sim::simulate_reference(loaded, lopt),
                     Simulator(loaded, lopt).run(),
                     "loaded preemptive seed " + std::to_string(seed));
    lopt.policy = SchedPolicy::kEdf;
    expect_identical(sim::simulate_reference(loaded, lopt),
                     Simulator(loaded, lopt).run(),
                     "loaded EDF seed " + std::to_string(seed));
    lopt.policy.reset();
    const SimResult newr = Simulator(mixed, lopt).run();
    expect_identical(sim::simulate_reference(mixed, lopt), newr,
                     "mixed-policy seed " + std::to_string(seed));
    mixed_preemptions += std::accumulate(
        newr.preemptions.begin(), newr.preemptions.end(), std::int64_t{0});
  }
  EXPECT_GT(mixed_preemptions, 0) << "the mixed-policy input never preempts";
}

TEST(Simulator, RunBatchEqualsFoldOfRuns) {
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/29);
  SimOptions opt;
  opt.duration = Duration::ms(250);
  Simulator sim(g, opt);
  const SimBatchResult batch = sim.run_batch(/*first_seed=*/10, 6);
  EXPECT_EQ(batch.replications, 6u);
  EXPECT_GT(batch.events, 0u);

  // Fold the six runs by hand.
  const std::size_t n = g.num_tasks();
  std::vector<Duration> disparity(n, Duration::zero());
  std::vector<Duration> response(n, Duration::zero());
  std::vector<std::int64_t> observed(n, 0), finished(n, 0), preempted(n, 0);
  Simulator probe(g, opt);
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const SimResult r = probe.run(seed);
    for (std::size_t t = 0; t < n; ++t) {
      disparity[t] = std::max(disparity[t], r.max_disparity[t]);
      response[t] = std::max(response[t], r.max_response_time[t]);
      observed[t] += r.jobs_observed[t];
      finished[t] += r.jobs_finished[t];
      preempted[t] += r.preemptions[t];
    }
  }
  EXPECT_EQ(batch.max_disparity, disparity);
  EXPECT_EQ(batch.max_response_time, response);
  EXPECT_EQ(batch.jobs_observed, observed);
  EXPECT_EQ(batch.jobs_finished, finished);
  EXPECT_EQ(batch.preemptions, preempted);
}

TEST(Simulator, BatchMergeIsShardingInvariant) {
  const TaskGraph g = random_dag_graph(10, 2, /*seed=*/31);
  SimOptions opt;
  opt.duration = Duration::ms(200);
  Simulator sim(g, opt);
  const SimBatchResult whole = sim.run_batch(1, 8);
  SimBatchResult sharded = sim.run_batch(1, 3);
  sharded.merge(sim.run_batch(4, 5));
  EXPECT_EQ(whole.replications, sharded.replications);
  EXPECT_EQ(whole.events, sharded.events);
  EXPECT_EQ(whole.max_disparity, sharded.max_disparity);
  EXPECT_EQ(whole.jobs_observed, sharded.jobs_observed);
  EXPECT_EQ(whole.jobs_finished, sharded.jobs_finished);
  EXPECT_EQ(whole.max_response_time, sharded.max_response_time);
  EXPECT_EQ(whole.preemptions, sharded.preemptions);
}

TEST(Simulator, MergeRejectsMismatchedShapes) {
  const TaskGraph a = random_dag_graph(8, 2, /*seed=*/37);
  const TaskGraph b = random_dag_graph(12, 2, /*seed=*/37);
  SimOptions opt;
  opt.duration = Duration::ms(50);
  SimBatchResult ra = Simulator(a, opt).run_batch(1, 1);
  const SimBatchResult rb = Simulator(b, opt).run_batch(1, 1);
  EXPECT_THROW(ra.merge(rb), PreconditionError);
}

/// Observer recording every callback for the observer-contract test.
struct RecordingObserver final : JobObserver {
  struct Seen {
    TaskId task;
    std::int64_t job;
    Instant release;
    Duration disparity;
  };
  std::vector<std::uint64_t> seeds;
  std::vector<Seen> jobs;

  void on_run_begin(std::uint64_t seed) override { seeds.push_back(seed); }
  void on_observed_job(TaskId task, std::int64_t job, Instant release,
                       Instant /*start*/, Instant /*finish*/,
                       const Instant* min_ts, const Instant* max_ts,
                       std::size_t num_sources) override {
    Instant lo = Instant::ns(INT64_MAX);
    Instant hi = Instant::ns(INT64_MIN);
    for (std::size_t s = 0; s < num_sources; ++s) {
      if (min_ts[s] > max_ts[s]) continue;  // source absent from this job
      lo = std::min(lo, min_ts[s]);
      hi = std::max(hi, max_ts[s]);
    }
    jobs.push_back({task, job, release, hi - lo});
  }
};

TEST(Simulator, ObserverSeesEveryObservedJobWithMatchingDisparity) {
  const TaskGraph g = random_dag_graph(10, 3, /*seed=*/41);
  SimOptions opt;
  opt.duration = Duration::ms(300);
  opt.warmup = Duration::ms(50);
  Simulator sim(g, opt);
  RecordingObserver obs;
  sim.set_observer(&obs);
  const SimResult res = sim.run(77);
  ASSERT_EQ(obs.seeds, std::vector<std::uint64_t>{77u});

  // Callback count per task == jobs_observed; max per-callback disparity
  // == the result's max_disparity; no callback precedes warmup.
  std::vector<std::int64_t> count(g.num_tasks(), 0);
  std::vector<Duration> worst(g.num_tasks(), Duration::zero());
  for (const RecordingObserver::Seen& s : obs.jobs) {
    EXPECT_GE(s.release, Instant::ns(0) + opt.warmup);
    ++count[s.task];
    worst[s.task] = std::max(worst[s.task], s.disparity);
  }
  EXPECT_EQ(count, res.jobs_observed);
  EXPECT_EQ(worst, res.max_disparity);

  // Detaching stops the callbacks.
  sim.set_observer(nullptr);
  (void)sim.run(78);
  EXPECT_EQ(obs.seeds.size(), 1u);
}

TEST(Simulator, PeriodsAboveTwoToThe56Terminate) {
  // Two sources -> A, B -> F on one ECU with periods of 1e17 and 9e16 ns.
  // At a minimum period >= 2^56 an uncapped calendar year (1024 buckets
  // of bit_floor(min_period / 8)) reaches 2^63 and wraps, no event fits
  // the open year and run() spins forever; the ctest TIMEOUT turns such
  // a hang into a failure.
  TaskGraph g;
  const auto source = [&g](const char* name, std::int64_t period_ns) {
    Task t;
    t.name = name;
    t.period = Duration::ns(period_ns);
    return g.add_task(t);
  };
  const auto task = [&g](const char* name, std::int64_t period_ns, int prio) {
    Task t;
    t.name = name;
    t.period = Duration::ns(period_ns);
    t.wcet = t.bcet = Duration::us(1);
    t.ecu = 0;
    t.priority = prio;
    return g.add_task(t);
  };
  const std::int64_t slow = 100'000'000'000'000'000;  // 1e17 ns
  const std::int64_t fast = 90'000'000'000'000'000;   // 9e16 ns >= 2^56
  const TaskId s1 = source("S1", slow);
  const TaskId s2 = source("S2", fast);
  const TaskId a = task("A", slow, 0);
  const TaskId b = task("B", fast, 1);
  const TaskId f = task("F", fast, 2);
  g.add_edge(s1, a);
  g.add_edge(s2, b);
  g.add_edge(a, f);
  g.add_edge(b, f);
  g.validate();

  SimOptions opt;
  opt.duration = Duration::s(5);
  const SimResult res = Simulator(g, opt).run();
  // Only the jobs released at t = 0 fall inside the window; the three
  // unit-WCET jobs on the shared ECU finish back to back.
  EXPECT_EQ(res.jobs_finished[a], 1);
  EXPECT_EQ(res.jobs_finished[b], 1);
  EXPECT_EQ(res.jobs_finished[f], 1);
  EXPECT_EQ(res.max_response_time[f], Duration::us(3));
}

}  // namespace
}  // namespace ceta
