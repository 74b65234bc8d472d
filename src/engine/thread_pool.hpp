// A small fixed-size thread pool for the coarse-grained fan-outs:
// explorer restarts, Monte-Carlo replication chunks and cetad request
// workers.  A single analysis query always runs on its caller's thread.
//
// Design constraints, in order: correctness under TSan, deterministic
// results (the pool only schedules; each job is a pure function of its
// inputs), and simplicity — jobs are CPU-bound and take milliseconds or
// more, so a mutex-guarded deque is plenty and lock-free cleverness would
// buy nothing.
//
// Workers are std::jthread, so destruction is safe by construction: the
// destructor marks the pool as stopping, wakes every worker, lets them
// drain the remaining queue, and the jthread destructors join.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "obs/tracer.hpp"

namespace ceta {

/// Fixed-size worker pool; see the file comment for the design
/// constraints.
class ThreadPool {
 public:
  /// Ceiling on any worker count: more is certainly a typo or a wrapped
  /// negative, not a real machine.  The constructor checks it before any
  /// worker starts, so it bounds every explicit thread count
  /// (ExploreOptions, MonteCarloOptions, cetad --workers) as well as the
  /// CETA_THREADS override.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Spawn `num_threads` workers, in [1, kMaxThreads].
  explicit ThreadPool(std::size_t num_threads) {
    CETA_EXPECTS(num_threads >= 1, "ThreadPool: need at least one thread");
    CETA_EXPECTS(num_threads <= kMaxThreads,
                 "ThreadPool: more than kMaxThreads (1024) threads");
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] {
        obs::set_thread_name("pool-worker-" + std::to_string(i));
        run();
      });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue, then joins all workers (jobs posted before
  /// destruction all execute).
  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    ready_.notify_all();
  }

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// True when called from a worker thread of *any* ThreadPool.  Pool
  /// jobs must not submit sub-jobs and block on them — with no work
  /// stealing, every worker could end up waiting on queued sub-jobs no
  /// one is left to run.  Nested fan-out (a Monte-Carlo fleet or an
  /// explorer run started from a pool job) checks this and runs inline.
  static bool current_thread_in_pool() { return in_worker_flag(); }

  /// Enqueue a fire-and-forget job.
  void post(std::function<void()> job) {
    CETA_EXPECTS(job != nullptr, "ThreadPool::post: empty job");
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(job));
    }
    ready_.notify_one();
  }

  /// Enqueue a job and get a future for its result; exceptions thrown by
  /// the job surface at future::get().
  template <typename F>
  std::future<std::invoke_result_t<F&>> submit(F&& f) {
    using R = std::invoke_result_t<F&>;
    // std::function requires copyable callables; hold the packaged_task
    // behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    post([task]() { (*task)(); });
    return result;
  }

  /// Default worker count when a caller asks for 0 threads.  Precedence
  /// (documented in DESIGN.md): an explicit count (ExploreOptions,
  /// MonteCarloOptions::num_threads, cetad --workers) bypasses this
  /// function entirely; otherwise a CETA_THREADS environment override wins
  /// (a plain integer in [1, kMaxThreads]; anything else — zero, negative,
  /// non-numeric, overflowing — falls back to the hardware default with a
  /// stderr warning); otherwise hardware_concurrency, capped at 8.
  static std::size_t default_concurrency() {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t hw_default =
        hw == 0 ? 1 : (hw > 8 ? std::size_t{8} : static_cast<std::size_t>(hw));
    if (const char* env = std::getenv("CETA_THREADS"); env && *env) {
      std::size_t v = 0;
      if (parse_whole(env, v) && v >= 1 && v <= kMaxThreads) return v;
      std::fprintf(stderr,
                   "ceta: ignoring invalid CETA_THREADS='%s' (want an "
                   "integer in [1, %zu]); using %zu worker(s)\n",
                   env, kMaxThreads, hw_default);
    }
    return hw_default;
  }

 private:
  static bool& in_worker_flag() {
    static thread_local bool in_worker = false;
    return in_worker;
  }

  void run() {
    in_worker_flag() = true;
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      obs::Span span("engine", "pool.job");
      job();
    }
  }

  // Declaration order matters: workers_ must be destroyed (joined) while
  // the mutex, condition variable and queue are still alive.
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace ceta
