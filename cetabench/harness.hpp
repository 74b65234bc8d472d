// Driver side of the ceta benchmark: the per-step clock, the span log of
// the traced run, and the interface every workload implements.
//
// A workload is a fixed, seeded list of set-up steps and ops.  The driver
// replays the whole list in rounds until the run's time is spent; every
// timing metric is built from each step's best time over the rounds, which
// keeps host phases that slow a whole round out of the figures (NOTES.md).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cetabench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One public call into one layer, recorded by the benchmark around it.
struct SpanRecord {
  const char* name = "";  ///< "<layer>.<call>"; always a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::int32_t step = 0;     ///< op index, or num_ops + set-up step index
  std::int32_t round = 0;
};

/// In-memory span log.  When disabled, span() is a plain call.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_step(std::int32_t step, std::int32_t round) {
    step_ = step;
    round_ = round;
  }

  template <typename F>
  decltype(auto) span(const char* name, F&& f) {
    if (!enabled_) return f();
    struct Closer {
      SpanLog& log;
      std::int32_t index;
      ~Closer() { log.close(index); }
    } closer{*this, open(name)};
    return f();
  }

  /// Rename the span that closed last (a call whose layer is known only
  /// from its result, such as the disparity backend kAuto picked).
  void rename_last_closed(const char* name) {
    if (enabled_ && last_closed_ >= 0) spans_[last_closed_].name = name;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int32_t open(const char* name) {
    SpanRecord r;
    r.name = name;
    r.parent = current_;
    r.step = step_;
    r.round = round_;
    r.start_ns = now_ns();
    spans_.push_back(r);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t index) {
    spans_[index].end_ns = now_ns();
    current_ = spans_[index].parent;
    last_closed_ = index;
  }

  bool enabled_ = false;
  std::int32_t current_ = -1;
  std::int32_t last_closed_ = -1;
  std::int32_t step_ = 0;
  std::int32_t round_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Handed to every timed step.
struct StepContext {
  SpanLog& spans;
  std::int64_t write_ns = -1;  ///< time in the step's write part, if any

  template <typename F>
  decltype(auto) span(const char* name, F&& f) {
    return spans.span(name, static_cast<F&&>(f));
  }

  /// Time `f` as the step's write part: the call that changes the state
  /// the analysis runs on (see NOTES.md, write_latency_us_p50).
  template <typename F>
  void write(F&& f) {
    const std::int64_t t0 = now_ns();
    f();
    write_ns = (write_ns < 0 ? 0 : write_ns) + (now_ns() - t0);
  }
};

/// Deterministic work counts of one round, from public results only.
using Counts = std::map<std::string, double>;

struct OpOutcome {
  bool ok = true;             ///< the independent check passed
  std::uint64_t digest = 0;   ///< hash of the op's outputs; equal every round
  std::string failure;        ///< why the check failed
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t num_setup_steps() const = 0;
  virtual std::size_t num_ops() const = 0;

  /// Untimed, before the round's set-up steps.
  virtual void begin_round() {}
  virtual void setup_step(std::size_t i, StepContext& ctx) = 0;
  virtual void run_op(std::size_t i, StepContext& ctx) = 0;
  /// Untimed, right after run_op(i): fold op i's public results into
  /// `counts`, release them, and when `check` is set run the independent
  /// output check.
  virtual OpOutcome observe_op(std::size_t i, Counts& counts, bool check) = 0;

  /// Tasks in op i's graph; with on_ladder(i), the op is a rung of the
  /// size ladder that the scaling exponents are fitted over.
  virtual std::size_t op_tasks(std::size_t /*i*/) const { return 0; }
  virtual bool on_ladder(std::size_t /*i*/) const { return false; }
};

std::unique_ptr<Workload> make_system_verdict(std::uint64_t seed);
std::unique_ptr<Workload> make_large_dag(std::uint64_t seed);
std::unique_ptr<Workload> make_design_session(std::uint64_t seed);
std::unique_ptr<Workload> make_design_search(std::uint64_t seed);

/// FNV-1a over 64-bit words, for op output digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
    return *this;
  }
  Digest& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return add(static_cast<std::uint64_t>(s.size()));
  }
};

}  // namespace cetabench
