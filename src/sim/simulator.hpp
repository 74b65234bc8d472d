// Resettable Monte-Carlo-scale discrete-event simulator (§II-B semantics).
//
// The front door of src/sim/: a Simulator is constructed once per graph,
// builds every static table up front (dense ECU array, CSR edge lists,
// token/provenance arenas sized from channel capacities) and then runs
// any number of seeded replications without allocating — reset() only
// rewinds cursors and refills sentinel values.  Simulated semantics are
// bit-identical to the pre-rewrite engine (kept as the test-only oracle
// tests/sim_oracle/reference_engine.hpp for differential testing):
// periodic jittered releases, zero-time sources, per-ECU dispatch
// (non-preemptive or preemptive fixed priority, or EDF), implicit/LET
// communication over FIFO sliding-window channels, and the
// (time, kind, seq) total event order.
//
// Scale-up machinery relative to the reference engine:
//  * calendar queue (calendar_queue.hpp) instead of a binary heap;
//  * tokens live in per-channel ring buffers of POD slots; provenance is
//    a dense [min per source | max per source] block per slot instead of
//    a sorted heap vector, merged with branch-free elementwise min/max;
//  * job and LET-publish records come from freelist arenas.
//
// Determinism: all randomness flows through the counter-based SimStream
// (exec_model.hpp), so run(seed) is a pure function of
// (graph, options, seed) — see the determinism contract in exec_model.hpp.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/task_graph.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/options.hpp"

namespace ceta::sim {

/// Streaming consumer of observed jobs (release >= warmup carrying >= 1
/// source stamp), invoked in finish order during a run.  The Monte-Carlo
/// driver aggregates its histograms through this interface without the
/// simulator ever materializing per-job storage.
class JobObserver {
 public:
  virtual ~JobObserver() = default;

  /// A new replication starts; `seed` is its SimStream seed (usable to
  /// recompute jittered releases, see exec_model.hpp).
  virtual void on_run_begin(std::uint64_t seed) { (void)seed; }

  /// One observed job finished.  min_ts/max_ts index the simulator's
  /// dense source order (Simulator::source_task); a source with
  /// min_ts > max_ts contributed no sample to this job.
  virtual void on_observed_job(TaskId task, std::int64_t job, Instant release,
                               Instant start, Instant finish,
                               const Instant* min_ts, const Instant* max_ts,
                               std::size_t num_sources) = 0;
};

/// Merge-commutative summary of a run_batch: per-task maxima/sums over
/// all replications.  merge() is associative and commutative, so any
/// sharding of a seed range produces the identical batch result.
struct SimBatchResult {
  std::uint64_t replications = 0;
  std::uint64_t events = 0;
  std::vector<Duration> max_disparity;
  std::vector<std::int64_t> jobs_observed;
  std::vector<std::int64_t> jobs_finished;
  std::vector<Duration> max_response_time;
  std::vector<std::int64_t> preemptions;

  void merge(const SimBatchResult& other);
};

class Simulator {
 public:
  /// Validates opt (InvalidOptionsError) and the graph
  /// (TaskGraph::validate), then builds all static tables.  The graph is
  /// copied: a Simulator is self-contained and safe to move to a worker
  /// thread.
  Simulator(const TaskGraph& g, SimOptions opt);

  const TaskGraph& graph() const { return g_; }
  const SimOptions& options() const { return opt_; }

  /// Dense source indexing used by JobObserver callbacks.
  std::size_t num_sources() const { return sources_.size(); }
  TaskId source_task(std::size_t idx) const { return sources_[idx]; }

  /// Attach (or detach with nullptr) the streaming observer; applies to
  /// every subsequent run.  Not owned.
  void set_observer(JobObserver* observer) { observer_ = observer; }

  /// Rewind all per-run state without releasing arena capacity.  run()
  /// resets implicitly, so an explicit call is only needed to drop state
  /// early (e.g. after a CapacityError abandoned a run midway).
  void reset();

  /// One replication under options().seed / the given seed.  Equivalent
  /// to (but much cheaper than) constructing a fresh Simulator.
  SimResult run() { return run(opt_.seed); }
  SimResult run(std::uint64_t seed);

  /// `replications` runs under seeds first_seed, first_seed+1, ...,
  /// merged into a batch summary.  Traces are not recorded in batch mode
  /// (record_trace is honored per run() only).
  SimBatchResult run_batch(std::uint64_t first_seed,
                           std::uint64_t replications);

  /// Lifetime count of processed events (all runs), for throughput
  /// reporting.
  std::uint64_t events_processed() const { return events_total_; }

 private:
  struct JobSlot {
    TaskId task = 0;
    std::int64_t job = -1;
    Instant release;
    Instant deadline;  ///< release + period; orders dispatch under EDF
    Instant start;
    Duration remaining;
    bool has_snapshot = false;
    bool started = false;
    std::vector<ReadLink> reads;  // only filled when tracing
  };

  struct EcuRun {
    bool busy = false;
    std::uint32_t running = 0;  ///< job-slot index
    Instant resumed_at;
    std::uint64_t expected_finish_gen = 0;  ///< 0 = none outstanding
    std::vector<std::uint32_t> ready;       ///< job-slot indices
  };

  struct TokenSlot {
    TaskId task = 0;
    std::int64_t job = -1;
    Instant release;
    Instant write;
  };

  /// Per-task constants flattened out of the TaskGraph so the event
  /// handlers never pay the bounds-checked TaskGraph::task() call.
  struct TaskRow {
    Instant offset;
    Duration period;
    Duration jitter;
    Duration bcet;
    Duration wcet;
    std::int32_t priority = 0;
    std::uint32_t ecu_idx = 0;
    bool is_let = false;
    bool is_source = false;
  };

  void run_core(std::uint64_t seed);
  void push_release(TaskId task, std::int64_t job, Instant nominal);
  void schedule_next_release(TaskId task, std::int64_t job);
  void on_source_release(const SimEvent& ev);
  void on_release(const SimEvent& ev);
  void on_finish(const SimEvent& ev);
  void on_publish(const SimEvent& ev);
  void maybe_preempt(std::uint32_t ecu_idx, Instant now);
  void dispatch(std::uint32_t ecu_idx, Instant now);
  void read_inputs(TaskId task, Instant* prov, std::vector<ReadLink>* reads);
  void write_outputs(TaskId task, const TokenSlot& tok, const Instant* prov);
  Duration exec_time(TaskId task, std::int64_t job) const;

  std::uint32_t alloc_job();
  void free_job(std::uint32_t slot);
  std::uint32_t alloc_publish();
  void free_publish(std::uint32_t slot);

  // Dense provenance blocks: 2 * num_sources() + 2 Instants per block,
  // laid out [min_0 .. min_{S-1} | max_0 .. max_{S-1} | lo | hi] with
  // +inf/-inf sentinels for absent sources.  lo/hi are the running
  // aggregates (min over mins, max over maxes), kept up to date by every
  // merge so emptiness and disparity checks are O(1) per finished job.
  std::size_t prov_stride() const { return 2 * sources_.size() + 2; }
  void prov_clear(Instant* p) const;
  void prov_merge(Instant* dst, const Instant* src) const;
  bool prov_empty(const Instant* p) const;
  Duration prov_disparity(const Instant* p) const;

  // --- static tables (built once in the constructor) ---
  TaskGraph g_;
  SimOptions opt_;
  std::uint32_t num_ecus_ = 0;
  /// Resolved discipline per dense ECU index: the options override if
  /// set, else the graph's per-ECU policy.
  std::vector<SchedPolicy> ecu_policy_;
  std::vector<TaskRow> rows_;               ///< flattened per-task constants
  std::vector<std::uint32_t> ecu_of_task_;  ///< dense ECU index or kNoEcuIdx
  std::vector<TaskId> sources_;             ///< dense source order
  std::vector<std::int32_t> source_index_;  ///< task -> dense index or -1
  // CSR input/output edge lists (inputs sorted to predecessors order so
  // trace ReadLinks line up).
  std::vector<std::uint32_t> in_off_, in_edges_;
  std::vector<std::uint32_t> out_off_, out_edges_;
  // Channel rings: edge e owns token slots [chan_off_[e], chan_off_[e+1]).
  std::vector<std::uint32_t> chan_off_;
  std::vector<std::uint32_t> chan_cap_;

  // --- per-run state (rewound by reset()) ---
  CalendarQueue queue_;
  std::vector<EcuRun> ecus_;
  std::vector<std::uint32_t> chan_head_, chan_count_;
  std::vector<TokenSlot> token_slots_;
  std::vector<Instant> token_prov_;
  std::vector<JobSlot> jobs_;
  std::vector<Instant> job_prov_;
  std::vector<std::uint32_t> free_jobs_;
  std::vector<TokenSlot> publish_slots_;  ///< pending LET tokens
  std::vector<Instant> publish_prov_;
  std::vector<std::uint32_t> free_publish_;
  std::vector<std::uint32_t> pending_dispatch_;
  std::vector<Instant> scratch_prov_;  ///< one block, for source tokens
  SimStream stream_{1};
  std::uint64_t seq_ = 0;
  std::uint64_t finish_gen_ = 0;
  std::uint64_t jobs_created_ = 0;
  std::uint64_t events_run_ = 0;    ///< events of the current run
  std::uint64_t events_total_ = 0;  ///< lifetime, across runs
  SimResult result_;
  JobObserver* observer_ = nullptr;
};

}  // namespace ceta::sim

namespace ceta {
// The simulator is spelled ceta::sim::*, hoisted into ceta for
// convenience alongside the SimOptions/SimResult contract it shares with
// the Monte-Carlo driver.
using sim::JobObserver;
using sim::SimBatchResult;
using sim::Simulator;
}  // namespace ceta
