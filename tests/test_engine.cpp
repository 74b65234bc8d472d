#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "disparity/analyzer.hpp"
#include "helpers.hpp"

namespace ceta {
namespace {

/// One ECU, a long low-priority task and a short high-priority one with a
/// later offset — exercises non-preemptive blocking.
TaskGraph blocking_graph() {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(100);
  const TaskId sid = g.add_task(s);
  Task lo;
  lo.name = "low";
  lo.wcet = lo.bcet = Duration::ms(5);
  lo.period = Duration::ms(100);
  lo.ecu = 0;
  lo.priority = 1;
  const TaskId loid = g.add_task(lo);
  Task hi;
  hi.name = "high";
  hi.wcet = hi.bcet = Duration::ms(1);
  hi.period = Duration::ms(100);
  hi.offset = Duration::ms(1);
  hi.ecu = 0;
  hi.priority = 0;
  const TaskId hiid = g.add_task(hi);
  g.add_edge(sid, loid);
  g.add_edge(sid, hiid);
  g.validate();
  return g;
}

SimOptions traced(Duration duration) {
  SimOptions opt;
  opt.duration = duration;
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kWorstCase;
  return opt;
}

TEST(Engine, PeriodicReleases) {
  const TaskGraph g = testing::simple_chain_graph();
  const SimResult res = Simulator(g, traced(Duration::ms(100))).run();
  // S and A: T = 10ms → 10 jobs each; B: T = 20ms → 5 jobs.
  EXPECT_EQ(res.jobs_finished[0], 10);
  EXPECT_EQ(res.jobs_finished[1], 10);
  EXPECT_EQ(res.jobs_finished[2], 5);
  // Releases at k·T.
  const auto& jobs = res.trace.tasks[1].jobs;
  ASSERT_EQ(jobs.size(), 10u);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(jobs[k].release, Duration::ms(10) * static_cast<int>(k));
  }
}

TEST(Engine, OffsetShiftsReleases) {
  TaskGraph g = testing::simple_chain_graph();
  g.task(1).offset = Duration::ms(3);
  const SimResult res = Simulator(g, traced(Duration::ms(50))).run();
  const auto& jobs = res.trace.tasks[1].jobs;
  ASSERT_GE(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].release, Duration::ms(3));
  EXPECT_EQ(jobs[1].release, Duration::ms(13));
}

TEST(Engine, SourceJobsExecuteInstantly) {
  const TaskGraph g = testing::simple_chain_graph();
  const SimResult res = Simulator(g, traced(Duration::ms(50))).run();
  for (const JobRecord& j : res.trace.tasks[0].jobs) {
    EXPECT_EQ(j.release, j.start);
    EXPECT_EQ(j.start, j.finish);
  }
}

TEST(Engine, NonPreemptiveBlocking) {
  const TaskGraph g = blocking_graph();
  const SimResult res = Simulator(g, traced(Duration::ms(100))).run();
  // low starts at 0 and runs to 5ms; high released at 1ms must wait.
  const JobRecord& hi = res.trace.tasks[2].jobs.at(0);
  EXPECT_EQ(hi.release, Duration::ms(1));
  EXPECT_EQ(hi.start, Duration::ms(5));
  EXPECT_EQ(hi.finish, Duration::ms(6));
  EXPECT_EQ(res.max_response_time[2], Duration::ms(5));
}

TEST(Engine, PriorityOrderAtSimultaneousRelease) {
  TaskGraph g = blocking_graph();
  g.task(2).offset = Duration::zero();  // both ready at t = 0
  const SimResult res = Simulator(g, traced(Duration::ms(100))).run();
  const JobRecord& hi = res.trace.tasks[2].jobs.at(0);
  const JobRecord& lo = res.trace.tasks[1].jobs.at(0);
  EXPECT_EQ(hi.start, Duration::zero());
  EXPECT_EQ(lo.start, Duration::ms(1));  // after high finishes
}

TEST(Engine, ImplicitReadAtStartNotAtRelease) {
  // high is blocked from 1ms to 5ms; a fresh source sample arrives at 4ms
  // (source period 4ms) and must be the one high reads when it starts.
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(4);
  const TaskId sid = g.add_task(s);
  Task lo;
  lo.name = "low";
  lo.wcet = lo.bcet = Duration::ms(5);
  lo.period = Duration::ms(1000);
  lo.ecu = 0;
  lo.priority = 1;
  const TaskId loid = g.add_task(lo);
  Task hi;
  hi.name = "high";
  hi.wcet = hi.bcet = Duration::ms(1);
  hi.period = Duration::ms(1000);
  hi.offset = Duration::ms(1);
  hi.ecu = 0;
  hi.priority = 0;
  const TaskId hiid = g.add_task(hi);
  g.add_edge(sid, hiid);
  g.add_edge(sid, loid);
  g.validate();

  const SimResult res = Simulator(g, traced(Duration::ms(20))).run();
  const JobRecord& hij = res.trace.tasks[hiid].jobs.at(0);
  EXPECT_EQ(hij.start, Duration::ms(5));
  ASSERT_EQ(hij.reads.size(), 1u);
  EXPECT_EQ(hij.reads[0].producer_release, Duration::ms(4));
}

TEST(Engine, SameInstantWriteVisibleToStart) {
  // Source releases at t=0 and the consumer also starts at t=0: the token
  // "finishes no later than the start" and must be readable.
  const TaskGraph g = testing::simple_chain_graph();
  const SimResult res = Simulator(g, traced(Duration::ms(30))).run();
  const JobRecord& a0 = res.trace.tasks[1].jobs.at(0);
  EXPECT_EQ(a0.start, Duration::zero());
  ASSERT_EQ(a0.reads.size(), 1u);
  EXPECT_EQ(a0.reads[0].producer_job, 0);
  EXPECT_EQ(a0.reads[0].producer_release, Duration::zero());
}

TEST(Engine, RegisterKeepsLatestToken) {
  // Slow consumer (T=20) of a fast source (T=10) reads the newest sample.
  const TaskGraph g = testing::simple_chain_graph();
  const SimResult res = Simulator(g, traced(Duration::ms(100))).run();
  // B@k releases at 20k; at its start the latest finished A job is the one
  // released at 20k (A runs 1ms from 20k; B starts after A finishes...).
  // Instead of re-deriving exact pipeline timing, assert monotone
  // freshness: each B job reads an A token no older than one A period
  // before its start.
  for (const JobRecord& j : res.trace.tasks[2].jobs) {
    ASSERT_EQ(j.reads.size(), 1u);
    if (j.reads[0].producer_job < 0) continue;
    EXPECT_GE(j.reads[0].producer_release, j.start - Duration::ms(10));
    EXPECT_LE(j.reads[0].producer_release, j.start);
  }
}

TEST(Engine, FifoBufferDelaysData) {
  // Consumer with a FIFO of 3 on its input reads the sample from two
  // producer periods earlier (steady state).
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  Task a;
  a.name = "A";
  a.wcet = a.bcet = Duration::ms(1);
  a.period = Duration::ms(10);
  a.offset = Duration::ms(5);
  a.ecu = 0;
  a.priority = 0;
  const TaskId aid = g.add_task(a);
  g.add_edge(sid, aid, ChannelSpec{3});
  g.validate();

  const SimResult res = Simulator(g, traced(Duration::ms(200))).run();
  for (const JobRecord& j : res.trace.tasks[aid].jobs) {
    if (j.release < Duration::ms(50)) continue;  // let the FIFO fill
    ASSERT_EQ(j.reads.size(), 1u);
    // A@t reads S token from floor-to-period(t) − 20ms.
    EXPECT_EQ(j.reads[0].producer_release,
              j.release - Duration::ms(5) - Duration::ms(20));
  }
}

TEST(Engine, DisparityMeasuredAtJoin) {
  // Fork-join with branches of different rates: the slow branch (T=40ms)
  // holds source samples older than the fast branch's (T=20ms), so sink
  // jobs see a positive disparity, bounded by the Theorem 2 analysis.
  TaskGraph g = testing::diamond_graph();
  g.task(3).period = Duration::ms(40);  // slow down branch D
  g.validate();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const Duration bound = analyze_time_disparity(g, 4, rtm).worst_case;

  SimOptions opt = traced(Duration::s(2));
  const SimResult res = Simulator(g, opt).run();
  EXPECT_GT(res.jobs_observed[4], 0);
  EXPECT_GT(res.max_disparity[4], Duration::zero());
  EXPECT_LE(res.max_disparity[4], bound);
}

TEST(Engine, WarmupExcludesEarlyJobs) {
  const TaskGraph g = testing::diamond_graph();
  SimOptions opt;
  opt.duration = Duration::ms(400);
  opt.exec_model = ExecTimeModel::kWorstCase;
  const SimResult all = Simulator(g, opt).run();
  opt.warmup = Duration::ms(200);
  const SimResult late = Simulator(g, opt).run();
  EXPECT_LT(late.jobs_observed[4], all.jobs_observed[4]);
  EXPECT_LE(late.max_disparity[4], all.max_disparity[4]);
}

TEST(Engine, DeterministicPerSeed) {
  const TaskGraph g = testing::random_dag_graph(10, 2, 5);
  SimOptions opt;
  opt.duration = Duration::ms(500);
  opt.seed = 99;
  const SimResult a = Simulator(g, opt).run();
  const SimResult b = Simulator(g, opt).run();
  EXPECT_EQ(a.max_disparity, b.max_disparity);
  EXPECT_EQ(a.jobs_finished, b.jobs_finished);
}

TEST(Engine, ResponseTimesRespectRtaBound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const TaskGraph g = testing::random_dag_graph(12, 3, seed + 40);
    const ResponseTimeMap rtm = testing::response_times_of(g);
    SimOptions opt;
    opt.duration = Duration::s(1);
    opt.seed = seed;
    const SimResult res = Simulator(g, opt).run();
    for (TaskId id = 0; id < g.num_tasks(); ++id) {
      EXPECT_LE(res.max_response_time[id], rtm[id])
          << "seed " << seed << " task " << g.task(id).name;
    }
  }
}

TEST(Engine, BestCaseModelRunsFaster) {
  TaskGraph g = testing::simple_chain_graph();
  g.task(1).bcet = Duration::us(100);  // spread [0.1, 1]ms
  SimOptions opt;
  opt.duration = Duration::ms(200);
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kBestCase;
  const SimResult bc = Simulator(g, opt).run();
  for (const JobRecord& j : bc.trace.tasks[1].jobs) {
    EXPECT_EQ(j.finish - j.start, Duration::us(100));
  }
  opt.exec_model = ExecTimeModel::kWorstCase;
  const SimResult wc = Simulator(g, opt).run();
  for (const JobRecord& j : wc.trace.tasks[1].jobs) {
    EXPECT_EQ(j.finish - j.start, Duration::ms(1));
  }
}

TEST(Engine, UniformModelStaysInRange) {
  TaskGraph g = testing::simple_chain_graph();
  g.task(1).bcet = Duration::us(200);
  SimOptions opt;
  opt.duration = Duration::ms(500);
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kUniform;
  const SimResult res = Simulator(g, opt).run();
  bool varied = false;
  Duration first;
  bool have_first = false;
  for (const JobRecord& j : res.trace.tasks[1].jobs) {
    const Duration e = j.finish - j.start;
    EXPECT_GE(e, Duration::us(200));
    EXPECT_LE(e, Duration::ms(1));
    if (!have_first) {
      first = e;
      have_first = true;
    } else if (e != first) {
      varied = true;
    }
  }
  EXPECT_TRUE(varied);
}

TEST(Engine, CustomExecHook) {
  TaskGraph g = testing::simple_chain_graph();
  g.task(1).bcet = Duration::us(1);
  SimOptions opt;
  opt.duration = Duration::ms(100);
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kCustom;
  opt.exec_hook = [](const Task& t, std::int64_t job, Rng&) {
    // Alternate between BCET and WCET per job index.
    return (job % 2 == 0) ? t.bcet : t.wcet;
  };
  const SimResult res = Simulator(g, opt).run();
  const auto& jobs = res.trace.tasks[1].jobs;
  ASSERT_GE(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].finish - jobs[0].start, Duration::us(1));
  EXPECT_EQ(jobs[1].finish - jobs[1].start, Duration::ms(1));
}

TEST(Engine, CustomHookOutOfRangeRejected) {
  TaskGraph g = testing::simple_chain_graph();
  SimOptions opt;
  opt.duration = Duration::ms(50);
  opt.exec_model = ExecTimeModel::kCustom;
  opt.exec_hook = [](const Task& t, std::int64_t, Rng&) {
    return t.wcet + Duration::ns(1);
  };
  EXPECT_THROW(Simulator(g, opt).run(), PreconditionError);
}

TEST(Engine, JobCapGuards) {
  const TaskGraph g = testing::simple_chain_graph();
  SimOptions opt;
  opt.duration = Duration::s(10);
  opt.max_jobs = 100;
  EXPECT_THROW(Simulator(g, opt).run(), CapacityError);
}

TEST(Engine, OptionValidation) {
  // SimOptions::validate() rejects nonsensical combinations with
  // InvalidOptionsError before any simulation state exists; the same gate
  // covers the Simulator ctor and the Monte-Carlo driver.
  const TaskGraph g = testing::simple_chain_graph();
  SimOptions opt;
  opt.duration = Duration::zero();
  EXPECT_THROW(Simulator(g, opt), InvalidOptionsError);
  opt.duration = Duration::ms(10);
  opt.warmup = Duration::ms(10);
  EXPECT_THROW(Simulator(g, opt), InvalidOptionsError);
  opt.warmup = Duration::ms(-1);
  EXPECT_THROW(Simulator(g, opt), InvalidOptionsError);
  opt.warmup = Duration::zero();
  opt.max_jobs = 0;
  EXPECT_THROW(Simulator(g, opt), InvalidOptionsError);
  opt.max_jobs = 1000;
  opt.exec_model = ExecTimeModel::kCustom;  // no hook
  EXPECT_THROW(Simulator(g, opt), InvalidOptionsError);
  opt.exec_model = ExecTimeModel::kUniform;
  opt.exec_hook = [](const Task& t, std::int64_t, Rng&) { return t.wcet; };
  EXPECT_THROW(Simulator(g, opt), InvalidOptionsError);  // ignored hook
  opt.exec_hook = {};
  EXPECT_NO_THROW(Simulator(g, opt));
}

TEST(Engine, InvalidGraphRejected) {
  TaskGraph g;  // empty
  EXPECT_THROW(Simulator(g, SimOptions{}).run(), PreconditionError);
}

}  // namespace
}  // namespace ceta
