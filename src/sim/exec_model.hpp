// Execution-time models and counter-based draw streams for simulated jobs.
//
// The analyses bound behavior for *any* per-job execution time in
// [BCET, WCET]; the simulator draws concrete values.  Uniform sampling is
// the default for the evaluation's Sim curves; the extreme models are
// useful in tests (and adversarial mixes via the custom hook).
//
// Determinism contract
// --------------------
// Every random quantity of a simulation run is produced by a SimStream: a
// stateless counter-based generator whose draw for (task, job, purpose)
// is a pure function of the run seed and those coordinates — there is no
// evolving generator state.  Consequences, relied upon across the stack:
//  * a draw does not depend on *when* it is sampled, so event-processing
//    order, preemptions and queue implementation cannot perturb it;
//  * two engines simulating the same (graph, options, seed) sample
//    identical jitters and execution times — the basis of the
//    trace-equivalence sweep against the test-only reference engine
//    (tests/sim_oracle/reference_engine.hpp);
//  * Simulator::run_batch and the Monte-Carlo driver are bit-identical
//    regardless of thread count, chunking or scheduling order, because
//    replication k always runs under SimStream(first_seed + k);
//  * any per-run quantity (e.g. the jittered k-th release of a source) is
//    *recomputable* after the fact from (seed, task, k) alone — the
//    Monte-Carlo reaction-time accounting exploits this.
// Bounded draws use a fixed-point multiply of the 64-bit mix output; the
// bias is < range/2^64 and accepted in exchange for statelessness.

#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "graph/task.hpp"

namespace ceta {

enum class ExecTimeModel {
  kWorstCase,  ///< always WCET
  kBestCase,   ///< always BCET
  kUniform,    ///< uniform in [BCET, WCET]
  kCustom,     ///< user hook
};

/// User hook: must return a value in [task.bcet, task.wcet].  The Rng is
/// freshly seeded per (run seed, task, job) — see SimStream::kHook — so
/// hook draws inherit the determinism contract above.
using ExecTimeHook = std::function<Duration(const Task&, std::int64_t job,
                                            Rng&)>;

/// Stateless counter-based per-run draw stream (SplitMix64 finalizer over
/// the (seed, task, job, purpose) coordinates).
class SimStream {
 public:
  /// Purpose coordinate of a draw; extend rather than reuse so distinct
  /// quantities never share bits.
  enum Draw : std::uint32_t {
    kJitter = 0,  ///< release jitter in [0, task.jitter]
    kExec = 1,    ///< execution time under kUniform
    kHook = 2,    ///< seed of the per-job Rng handed to a custom hook
  };

  explicit SimStream(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Raw 64-bit draw for (task, job, purpose); pure in all four inputs.
  std::uint64_t bits(TaskId task, std::int64_t job, Draw purpose) const {
    std::uint64_t h = seed_;
    h = mix(h + kGamma * (static_cast<std::uint64_t>(task) + 1));
    h = mix(h + kGamma * (static_cast<std::uint64_t>(job) + 1));
    h = mix(h + kGamma * (static_cast<std::uint64_t>(purpose) + 1));
    return h;
  }

  /// Uniform duration in [lo, hi] (inclusive) for (task, job, purpose).
  Duration uniform_duration(Duration lo, Duration hi, TaskId task,
                            std::int64_t job, Draw purpose) const {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi.count() - lo.count()) + 1;
    const std::uint64_t raw = bits(task, job, purpose);
    // span == 0 means the full 2^64 range (unreachable for durations, but
    // keep the arithmetic total).
    if (span == 0) return Duration::ns(static_cast<std::int64_t>(raw));
    __extension__ using Wide = unsigned __int128;
    const auto off =
        static_cast<std::uint64_t>((static_cast<Wide>(raw) * span) >> 64);
    return lo + Duration::ns(static_cast<std::int64_t>(off));
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  std::uint64_t seed_;
};

/// Draw the execution time of job `job` of task `id` under the given
/// model.  Validates that a custom hook stays within [BCET, WCET].
Duration sample_execution_time(ExecTimeModel model, const ExecTimeHook& hook,
                               const Task& task, TaskId id, std::int64_t job,
                               const SimStream& stream);

/// The jittered release of job `job` of task `id`: `nominal` plus a
/// uniform draw in [0, task.jitter] (no draw when the task is
/// jitter-free).  Both engines and the Monte-Carlo reaction accounting
/// call exactly this.
Instant sample_release(const Task& task, TaskId id, std::int64_t job,
                       Instant nominal, const SimStream& stream);

}  // namespace ceta
