// ThreadPool: the pool must execute, propagate exceptions, drain on
// shutdown and refuse worker counts outside [1, kMaxThreads] before
// starting any worker.  ThreadPool::default_concurrency(): the
// CETA_THREADS override must accept exactly the sane values (plain
// integers in [1, kMaxThreads]) and fall back to the hardware clamp — with
// a warning, but without throwing — on everything else, overflow included.

#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <future>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace ceta {
namespace {

/// Expected fallback: hardware_concurrency clamped to [1, 8].
std::size_t hardware_default() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : (hw > 8 ? std::size_t{8} : static_cast<std::size_t>(hw));
}

/// Sets CETA_THREADS for one test and restores the previous value on exit.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* value) {
    const char* old = std::getenv("CETA_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv("CETA_THREADS", value, /*overwrite=*/1);
    } else {
      ::unsetenv("CETA_THREADS");
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv("CETA_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("CETA_THREADS");
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(DefaultConcurrency, UnsetUsesHardwareClamp) {
  const ScopedEnv env(nullptr);
  EXPECT_EQ(ThreadPool::default_concurrency(), hardware_default());
}

TEST(DefaultConcurrency, EmptyStringUsesHardwareClamp) {
  const ScopedEnv env("");
  EXPECT_EQ(ThreadPool::default_concurrency(), hardware_default());
}

TEST(DefaultConcurrency, ValidOverrideWins) {
  const ScopedEnv env("3");
  EXPECT_EQ(ThreadPool::default_concurrency(), 3u);
}

TEST(DefaultConcurrency, MaxAllowedOverrideWins) {
  const ScopedEnv env("1024");
  EXPECT_EQ(ThreadPool::default_concurrency(), ThreadPool::kMaxThreads);
}

TEST(DefaultConcurrency, ZeroFallsBack) {
  const ScopedEnv env("0");
  EXPECT_EQ(ThreadPool::default_concurrency(), hardware_default());
}

TEST(DefaultConcurrency, NegativeFallsBack) {
  const ScopedEnv env("-4");
  EXPECT_EQ(ThreadPool::default_concurrency(), hardware_default());
}

TEST(DefaultConcurrency, NonNumericFallsBack) {
  const ScopedEnv env("lots");
  EXPECT_EQ(ThreadPool::default_concurrency(), hardware_default());
}

TEST(DefaultConcurrency, TrailingGarbageFallsBack) {
  const ScopedEnv env("4x");
  EXPECT_EQ(ThreadPool::default_concurrency(), hardware_default());
}

TEST(DefaultConcurrency, OverflowFallsBack) {
  // Consumes every digit but does not fit: rejected, never saturated.
  const ScopedEnv env("99999999999999999999");
  EXPECT_EQ(ThreadPool::default_concurrency(), hardware_default());
}

TEST(DefaultConcurrency, AboveCapFallsBack) {
  const ScopedEnv env("4096");
  EXPECT_EQ(ThreadPool::default_concurrency(), hardware_default());
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

TEST(ThreadPool, RejectsMoreThanMaxThreadsBeforeStartingAny) {
  // Throws from the constructor's check, before the first worker spawns.
  EXPECT_THROW(ThreadPool{ThreadPool::kMaxThreads + 1}, PreconditionError);
}

}  // namespace
}  // namespace ceta
