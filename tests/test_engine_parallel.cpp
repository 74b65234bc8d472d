// AnalysisEngine::disparity_all and ThreadPool: the parallel batch path
// must be bit-identical to the serial loop, and the pool must execute,
// propagate exceptions and shut down cleanly.  These tests are the TSan
// targets (configure with -DCETA_SANITIZE=thread).

#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/analysis_engine.hpp"
#include "helpers.hpp"
#include "obs/tracer.hpp"

namespace ceta {
namespace {

using ceta::testing::random_dag_graph;
using ceta::testing::response_times_of;

void expect_reports_equal(const DisparityReport& a, const DisparityReport& b) {
  EXPECT_EQ(a.worst_case, b.worst_case);
  ASSERT_EQ(a.chains, b.chains);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].chain_a, b.pairs[i].chain_a);
    EXPECT_EQ(a.pairs[i].chain_b, b.pairs[i].chain_b);
    EXPECT_EQ(a.pairs[i].bound, b.pairs[i].bound);
  }
}

TEST(ThreadPool, ExecutesPostedJobs) {
  std::atomic<int> count{0};
  std::latch done(100);
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.post([&] {
        count.fetch_add(1, std::memory_order_relaxed);
        done.count_down();
      });
    }
    done.wait();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  // Jobs posted before destruction all run, even if never awaited.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.post([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SubmitReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
  // The pool survives a throwing job.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, RejectsZeroThreadsAndEmptyJobs) {
  EXPECT_THROW(ThreadPool{0}, PreconditionError);
  ThreadPool pool(1);
  EXPECT_THROW(pool.post(std::function<void()>{}), PreconditionError);
}

TEST(ThreadPool, DefaultConcurrencyIsSane) {
  const std::size_t n = ThreadPool::default_concurrency();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 8u);
}

TEST(ThreadPool, DefaultConcurrencyHonorsCetaThreadsEnv) {
  // Precedence is EngineOptions::num_threads > CETA_THREADS > hardware
  // clamp; this covers the env layer (each TEST is its own process, so
  // setenv cannot leak into other tests).
  const std::size_t hw_default = ThreadPool::default_concurrency();

  ASSERT_EQ(setenv("CETA_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::default_concurrency(), 3u);

  // Values above the hardware clamp are taken verbatim: the override is
  // an explicit user decision.
  ASSERT_EQ(setenv("CETA_THREADS", "12", 1), 0);
  EXPECT_EQ(ThreadPool::default_concurrency(), 12u);

  // Garbage, zero, negative and trailing-junk values fall back to the
  // hardware default (never below one thread).
  for (const char* bad : {"0", "-2", "abc", "4x", ""}) {
    ASSERT_EQ(setenv("CETA_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::default_concurrency(), hw_default)
        << "CETA_THREADS='" << bad << "'";
  }

  ASSERT_EQ(unsetenv("CETA_THREADS"), 0);
  EXPECT_EQ(ThreadPool::default_concurrency(), hw_default);
}

// The headline determinism property: disparity_all with >= 2 worker
// threads is bit-identical to the serial loop, across many generated
// graphs and both analysis methods.
TEST(EngineParallel, DisparityAllMatchesSerialAcrossGraphs) {
  constexpr std::uint64_t kNumGraphs = 100;
  for (std::uint64_t seed = 1; seed <= kNumGraphs; ++seed) {
    const TaskGraph g = random_dag_graph(12 + seed % 5, 3, seed);
    for (const DisparityMethod m :
         {DisparityMethod::kIndependent, DisparityMethod::kForkJoin}) {
      DisparityOptions opt;
      opt.method = m;

      EngineOptions serial_opt;
      serial_opt.num_threads = 1;
      const AnalysisEngine serial(g, serial_opt);

      EngineOptions parallel_opt;
      parallel_opt.num_threads = 4;
      const AnalysisEngine parallel(g, parallel_opt);

      const std::vector<TaskId> tasks = serial.fusing_tasks();
      ASSERT_FALSE(tasks.empty());
      const std::vector<DisparityReport> expected =
          serial.disparity_all(tasks, opt);
      const std::vector<DisparityReport> got =
          parallel.disparity_all(tasks, opt);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_reports_equal(got[i], expected[i]);
      }
    }
  }
}

TEST(EngineParallel, DisparityAllMatchesFreeFunctions) {
  const TaskGraph g = random_dag_graph(16, 4, /*seed=*/77);
  const ResponseTimeMap rtm = response_times_of(g);
  EngineOptions opt;
  opt.num_threads = 2;
  const AnalysisEngine engine(g, opt);
  const std::vector<TaskId> tasks = engine.fusing_tasks();
  const std::vector<DisparityReport> got = engine.disparity_all(tasks);
  ASSERT_EQ(got.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    expect_reports_equal(got[i], analyze_time_disparity(g, tasks[i], rtm));
  }
}

TEST(EngineParallel, RepeatedBatchesAreStable) {
  // Re-running the batch (fully warm caches) returns the same reports.
  const TaskGraph g = random_dag_graph(14, 3, /*seed=*/5);
  EngineOptions opt;
  opt.num_threads = 4;
  const AnalysisEngine engine(g, opt);
  const std::vector<TaskId> tasks = engine.fusing_tasks();
  const std::vector<DisparityReport> first = engine.disparity_all(tasks);
  for (int round = 0; round < 3; ++round) {
    const std::vector<DisparityReport> again = engine.disparity_all(tasks);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < again.size(); ++i) {
      expect_reports_equal(again[i], first[i]);
    }
  }
  EXPECT_EQ(engine.metrics().counter("engine.rta.runs"), 1u);
}

TEST(EngineParallel, ConcurrentCallersOnOneEngine) {
  // All engine accessors are const and internally synchronized: hammer one
  // engine from several external threads (on top of its own pool) and
  // check every thread saw the serial-reference reports.
  const TaskGraph g = random_dag_graph(13, 3, /*seed=*/9);
  EngineOptions opt;
  opt.num_threads = 2;
  const AnalysisEngine engine(g, opt);
  const AnalysisEngine reference(g);
  const std::vector<TaskId> tasks = engine.fusing_tasks();
  ASSERT_FALSE(tasks.empty());

  std::vector<DisparityReport> expected;
  expected.reserve(tasks.size());
  for (const TaskId t : tasks) expected.push_back(reference.disparity(t));

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (int c = 0; c < 4; ++c) {
      callers.emplace_back([&] {
        for (int round = 0; round < 3; ++round) {
          const std::vector<DisparityReport> got =
              engine.disparity_all(tasks);
          for (std::size_t i = 0; i < tasks.size(); ++i) {
            if (got[i].worst_case != expected[i].worst_case ||
                got[i].chains != expected[i].chains) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.metrics().counter("engine.rta.runs"), 1u);
}

TEST(EngineParallel, TracedBatchesStayCorrectAndRaceFree) {
  // Tracing ON while the pool fans out: per-thread trace buffers and the
  // span clock reads must not race with the workers or perturb results.
  // This is a primary TSan target (-DCETA_SANITIZE=thread).
  const TaskGraph g = random_dag_graph(14, 3, /*seed=*/23);
  EngineOptions opt;
  opt.num_threads = 4;
  const AnalysisEngine engine(g, opt);
  const std::vector<TaskId> tasks = engine.fusing_tasks();
  ASSERT_FALSE(tasks.empty());
  const std::vector<DisparityReport> expected = engine.disparity_all(tasks);

  obs::Tracer::global().start();  // in-memory
  AnalysisEngine traced(g, opt);
  std::vector<DisparityReport> got;
  {
    // External callers hammering the engine while its pool runs traced
    // jobs: every layer that records spans is exercised concurrently.
    std::vector<std::jthread> callers;
    for (int c = 0; c < 2; ++c) {
      callers.emplace_back([&] { (void)traced.disparity_all(tasks); });
    }
    got = traced.disparity_all(tasks);
  }
  {
    // A directly-owned pool guarantees pool.job / pool-worker spans even
    // when the graph has a single fusing task (inline batch path).
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) pool.submit([] {}).get();
  }
  const std::string json = obs::Tracer::global().stop_to_string();

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_reports_equal(got[i], expected[i]);
  }
  // The trace saw the batch: disparity_all itself plus pool worker spans.
  EXPECT_NE(json.find("\"disparity_all\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.job\""), std::string::npos);
  EXPECT_NE(json.find("pool-worker-"), std::string::npos);
}

TEST(EngineParallel, SingleTaskBatchRunsInline) {
  const TaskGraph g = random_dag_graph(12, 3, /*seed=*/13);
  EngineOptions opt;
  opt.num_threads = 8;
  const AnalysisEngine engine(g, opt);
  const std::vector<TaskId> tasks = engine.fusing_tasks();
  ASSERT_FALSE(tasks.empty());
  const std::vector<TaskId> one{tasks.front()};
  const std::vector<DisparityReport> got = engine.disparity_all(one);
  ASSERT_EQ(got.size(), 1u);
  expect_reports_equal(got[0], engine.disparity(tasks.front()));
  EXPECT_TRUE(engine.disparity_all({}).empty());
}

}  // namespace
}  // namespace ceta
