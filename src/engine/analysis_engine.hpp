// AnalysisEngine — the session facade over the analysis stack.
//
// Every analysis of this library decomposes into the same shared
// subproblems: the NP-FP response-time fixpoint (one per graph), the
// enumerated source→task chain sets (one per analyzed task) and the
// task-level disparity reports built on both.  The free functions in
// sched/, chain/ and disparity/ recompute them on every call, which is the
// right granularity for one-shot use but wasteful for sessions that
// analyze many sinks, methods or trials of the *same* graph (the Fig. 6
// sweeps, the ablation benches, a what-if design loop).  The per-chain
// backward-time bounds W(π)/B(π) of Lemmas 4–5 are O(|π|) sums of O(1) hop
// terms — no dearer than a cache lookup keyed by the chain — so they are
// not memoized: chain_bounds() evaluates them on every call.
//
// An AnalysisEngine owns a copy of the graph plus lazily computed,
// memoized artifacts of those three kinds, and re-exposes the analyses as
// methods that share them:
//
//   AnalysisEngine engine(graph);
//   if (!engine.rta().all_schedulable) ...          // fixpoint runs once
//   engine.disparity(sink);                          // Theorem 1/2 analyzer
//   engine.latency(chain);                           // data age / reaction
//   engine.optimize_buffers(sink);                   // §IV buffer design
//   for (TaskId t : engine.fusing_tasks()) engine.disparity(t);  // batch
//
// The graph is mutable *through the engine only*: the mutation API
// (set_period .. remove_edge, batched by Transaction) edits the owned copy
// and invalidates exactly the cache entries whose inputs changed, per the
// normative mutation × cache matrix in DESIGN.md §9.  Queries after a
// commit are bit-identical to a freshly constructed engine on the edited
// graph (the `incremental_matches_fresh` verify property).  Invalidation
// is epoch-based: each cache entry records the commit epoch it was
// computed under, each task records the last commit that dirtied its chain
// set / report, and a lookup recomputes iff the entry's stamp is older
// than that epoch — commits cost O(affected region), never a cache scan.
//
// Every analysis method returns byte-identical results to the
// corresponding free function (asserted by tests/test_engine_cache.cpp);
// the free functions remain the single source of truth for the math, the
// engine only decides *when* to evaluate and remember it.  The one design
// loop defined here, optimize_buffers, composes those memoized queries
// with a re-analysis of a buffered graph copy.  Every query runs on the
// calling thread.  All query methods are const and safe to call from
// several threads at once (cetad workers share one session engine); the
// caches are mutex-guarded and concurrent readers get results
// bit-identical to a serial run (tests/test_engine_parallel.cpp).
// Mutations are NOT safe against concurrent queries: a commit assumes
// exclusive access to the engine, like non-const methods of standard
// containers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chain/backward_bounds.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/buffer_opt.hpp"
#include "engine/invalidation.hpp"
#include "graph/paths.hpp"
#include "graph/task_graph.hpp"
#include "obs/metrics.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta {

struct EngineOptions {
  /// Options for the engine-owned response-time analysis (ignored when an
  /// external ResponseTimeMap is supplied at construction).
  RtaOptions rta;
  /// No effect; kept only so existing callers compile.
  std::size_t num_threads = 0;
  /// TEST ONLY — deliberately skip the report dirtying seeded by
  /// buffer-resize mutations, leaving the cached disparity reports
  /// downstream of the resized channel stale.  Exists so the verify
  /// campaign can prove the `incremental_matches_fresh` property catches a
  /// broken invalidation edge (`verify_bounds --inject-stale-cache`).
  /// Never set in production code.
  bool fault_skip_edge_invalidation = false;
};

/// End-to-end latency bounds of one chain (chain/latency.hpp), bundled.
struct LatencyReport {
  /// W(π) / B(π) of the chain.
  BackwardBounds backward;
  /// Bounds on the data age of any output of the chain's tail task.
  Duration max_data_age;
  Duration min_data_age;
  /// Upper bound on the reaction time to an external stimulus.
  Duration max_reaction_time;
};

class AnalysisEngine {
 public:
  /// @brief Own a copy of `graph` (validated here) and run the RTA lazily
  /// on first use.
  /// @param graph  Analyzed graph; copied, later edits via the mutation
  ///   API only.
  /// @param opt    Engine configuration (RTA options).
  /// Complexity: O(V + E) validation; analyses run lazily.
  explicit AnalysisEngine(TaskGraph graph, EngineOptions opt = {});

  /// @brief Same, but adopt an externally computed WCRT map (alternative
  /// RTAs, Audsley feasibility runs, ...).
  /// @param rtm  One WCRT per task; the engine then owns no RtaResult —
  ///   rta() throws, response_times() returns this map, and scheduling
  ///   mutations (set_period/set_wcet_range/set_priority) are rejected
  ///   because the engine cannot refresh an adopted map.
  AnalysisEngine(TaskGraph graph, ResponseTimeMap rtm, EngineOptions opt = {});

  ~AnalysisEngine();
  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// @brief Deep, independent copy of this engine with every cache warm.
  ///
  /// The clone owns its own copy of the graph, the RTA state (engine-owned
  /// or adopted external map), the invalidation epochs and the chain-set /
  /// report caches, so it answers every memoized
  /// query bit-identically to the original while mutations on either side
  /// never invalidate the other (tests/test_engine_clone.cpp).  Cached
  /// DisparityReports are immutable and shared by reference; everything
  /// else is copied.  Not cloned: the metrics registry (the clone starts
  /// with fresh, all-zero counters) and the commit observer (the clone has
  /// none).
  ///
  /// Thread safety: clone() is a const query and may run concurrently with
  /// other queries on this engine, but — like every query — not with
  /// commits.
  /// @return The cloned engine (never null).
  /// Complexity: O(graph + cached entries); no analysis is recomputed.
  std::unique_ptr<AnalysisEngine> clone() const;

  /// @brief The engine's copy of the analyzed graph (always reflects every
  /// committed mutation).
  const TaskGraph& graph() const { return graph_; }
  /// @brief The options the engine was constructed with.
  const EngineOptions& options() const { return opt_; }

  /// @brief The memoized RTA result (computed on first call, refreshed
  /// per-cohort after mutations).
  /// @throws PreconditionError if the engine adopted an external map — the
  ///   engine then has no RtaResult, only response times.
  /// Complexity: first call O(RTA fixpoints); afterwards O(dirty cohorts).
  const RtaResult& rta() const;

  /// @brief WCRT map used by every analysis of this engine (engine-owned
  /// RTA or the adopted external map).
  const ResponseTimeMap& response_times() const;

  /// @brief Convenience: all tasks schedulable?  (External-map mode: true
  /// iff every adopted WCRT is finite.)
  bool schedulable() const;

  /// @brief W(π)/B(π) of a chain: backward_bounds(graph(), chain,
  /// response_times(), method), evaluated on every call (not memoized).
  /// @param chain   A path of graph() ending anywhere.
  /// @param method  Hop-bound method used for W(π).
  /// Complexity: O(|π|) beyond the memoized RTA.
  BackwardBounds chain_bounds(
      const Path& chain,
      HopBoundMethod method = HopBoundMethod::kNonPreemptive) const;

  /// @brief Memoized enumerated source→task chain set P.
  /// @param task      Fusion task whose inbound chains are enumerated.
  /// @param path_cap  Enumeration capacity; throws CapacityError past it.
  /// @return Reference valid for the engine's lifetime; after a mutation
  ///   that dirties it, the *contents* are refreshed in place on the next
  ///   call, so long-held references observe the updated set rather than
  ///   dangling.
  /// Complexity: O(|P| · avg chain length) on first evaluation.
  const std::vector<Path>& chains(
      TaskId task, std::size_t path_cap = kDefaultPathCap) const;

  /// @brief All tasks fusing >= 2 source chains (the tasks with a
  /// nontrivial disparity) — the natural tasks to loop disparity() over.
  /// Complexity: O(V · E) counting pass; uncached (cheap and
  /// structure-dependent).
  std::vector<TaskId> fusing_tasks() const;

  /// @brief Memoized task-level disparity analysis; byte-identical to
  /// analyze_time_disparity_backend(graph(), task, response_times(), opt)
  /// (both route through route_disparity_backend):
  /// opt.backend picks the enumerating kernel or the DAG DP
  /// (disparity/dag_dp.hpp), with kAuto degrading sinks whose
  /// overflow-checked chain count exceeds opt.path_cap to the DP instead
  /// of throwing CapacityError.
  /// @param task  Fusion task to analyze.
  /// @param opt   Analysis options (validate()d here); every distinct
  ///   option tuple is its own cache entry (top_k normalized out unless
  ///   keep_pairs == kTopK).
  /// Complexity: O(|P|²) pair kernel or O(V + E·sources) DP on a miss,
  /// O(1) on a hit.
  DisparityReport disparity(TaskId task, const DisparityOptions& opt = {}) const;

  /// @brief End-to-end latency bounds of one chain (must be a path of
  /// graph()).
  /// @param chain   The chain to bound.
  /// @param method  Hop-bound method for the backward bounds.
  /// Complexity: O(|π|) beyond the memoized RTA.
  LatencyReport latency(
      const Path& chain,
      HopBoundMethod method = HopBoundMethod::kNonPreemptive) const;

  /// @brief Algorithm 1 on one chain pair (both ending at the same task):
  /// design_buffer(graph(), lambda, nu, response_times(), method).
  /// @param lambda,nu  The chain pair; design targets nu's head channel.
  /// Complexity: one Theorem 2 evaluation beyond the memoized RTA.
  BufferDesign optimize_buffer_pair(
      const Path& lambda, const Path& nu,
      HopBoundMethod method = HopBoundMethod::kNonPreemptive) const;

  /// @brief Multi-chain buffer design for every chain fusing at `task`
  /// (Algorithm 1 generalized to k chains).  Chains are grouped by head
  /// channel; each group's window midpoint (the mean over its members,
  /// Lemma 1 windows anchored at r(J) = 0) is aligned — up to the
  /// granularity of the head period — with the stalest group's, and the
  /// FIFO sizes follow Lemma 6.  The optimized bound re-runs the pair
  /// kernel (bit-identical to analyze_time_disparity) on a buffered copy of
  /// graph(), so it is safe by construction; when it does not improve on
  /// the baseline the trivial design (no channels) is returned.
  /// @param task  Fusion task to design for; its head channels must be
  ///   unbuffered (PreconditionError otherwise).
  /// @param opt   Analyzer options for both bounds.  The baseline is the
  ///   memoized disparity(task, opt) report and the windows come from
  ///   chain_bounds().
  /// @throws CapacityError when the baseline report is DP-served
  ///   (`truncated`): the design needs the enumerated chain set.
  /// Complexity: one (usually cached) disparity lookup plus one kernel
  /// analysis of the buffered copy over the baseline's chain set.
  MultiBufferDesign optimize_buffers(TaskId task,
                                     const DisparityOptions& opt = {}) const;

  // --- Mutation API -------------------------------------------------------
  //
  // Each setter edits the engine's graph copy and invalidates dependent
  // cache entries per the DESIGN.md §9 matrix; a single call is a
  // one-edit Transaction (validate, commit, invalidate).  To batch edits
  // — and pay one validation + one invalidation walk for all of them —
  // use Transaction.  After any commit, every query is bit-identical to a
  // fresh engine on the edited graph.  Mutations require exclusive access
  // (no concurrent queries) and are rejected wholesale (strong guarantee:
  // graph and caches unchanged) if the edited graph fails validate().

  /// @brief Set the period of `task` and commit.
  /// @throws PreconditionError in external-rtm mode (the adopted WCRT map
  ///   cannot be refreshed), or if the edited graph fails validate().
  /// Invalidates: RTA of the ECU cohort, chain sets and reports downstream
  /// of `task` (§9 row "period").
  /// Complexity: O(affected region) at commit; queries pay lazily.
  void set_period(TaskId task, Duration period);

  /// @brief Set the execution-time range of `task` and commit.
  /// @param bcet,wcet  New range; bcet <= wcet enforced by validate().
  /// @throws PreconditionError in external-rtm mode or on invalid edits.
  /// Invalidates: RTA of the ECU cohort, reports downstream (§9 row
  /// "WCET"); chain sets survive.
  void set_wcet_range(TaskId task, Duration bcet, Duration wcet);

  /// @brief Set the fixed priority of `task` and commit.
  /// @throws PreconditionError in external-rtm mode, or if the edit
  ///   collides with another priority on the ECU (validate()).
  /// Invalidates: like set_wcet_range (§9 row "priority").
  void set_priority(TaskId task, int priority);

  /// @brief Set the dispatching discipline of `ecu` and commit.
  /// @param ecu  Any ECU id except kNoEcu (sources never contend); an ECU
  ///   no task currently uses is accepted and recorded.
  /// @param policy  New per-ECU discipline (TaskGraph::set_policy).
  /// @throws PreconditionError in external-rtm mode (the adopted WCRT map
  ///   was computed under the old discipline), or on kNoEcu.
  /// Invalidates: RTA of the ECU's cohort and reports downstream —
  /// exactly a priority edit's footprint (§9 row "policy"); other ECUs'
  /// entries and all chain sets survive.
  void set_policy(EcuId ecu, SchedPolicy policy);

  /// @brief Resize the FIFO of channel (from, to) and commit.
  /// @param buffer_size  New depth (>= 1; 1 is the overwrite register).
  /// Invalidates: reports downstream of `to` (the Lemma 6 shift moves the
  /// bounds of chains traversing the edge) — RTA and chain sets survive
  /// (§9 row "buffer").
  void set_buffer(TaskId from, TaskId to, int buffer_size);

  /// @brief Set the release offset of `task` and commit.
  /// Invalidates: nothing — offsets enter no cached artifact (only the
  /// exact LET oracle and the simulator, both uncached; §9 row "offset").
  void set_offset(TaskId task, Duration offset);

  /// @brief Add the edge (from, to) and commit.
  /// @param spec  Channel configuration of the new edge.
  /// @throws PreconditionError on duplicate edges, cycles, or if `to` was
  ///   a source (sources carry no ECU; giving them an inbound edge would
  ///   reclassify them, which validate() rejects).
  /// Invalidates: chain sets and reports downstream of `to`; the RTA
  /// survives (§9 row "add edge").
  void add_edge(TaskId from, TaskId to, ChannelSpec spec = {});

  /// @brief Remove the edge (from, to) and commit.
  /// @throws PreconditionError if absent, or if removal strands `to` as a
  ///   source with non-source parameters (validate()).
  /// Invalidates: chain sets and reports downstream of `to` *on the
  /// pre-commit graph* (removal destroys reachability); the RTA survives
  /// (§9 row "remove edge").
  void remove_edge(TaskId from, TaskId to);

  /// A batch of mutations applied as one commit: stage edits with the
  /// fluent setters, then commit().  The batch validates once and runs one
  /// invalidation walk over the union of the edits — the cheap way to
  /// express design-space moves that are only valid jointly (swapping two
  /// priorities, rewiring an edge).  Destroying an uncommitted Transaction
  /// discards its staged edits.  commit() provides the strong guarantee:
  /// if the edited graph fails validate(), the graph and all caches are
  /// left untouched and the error is rethrown.
  ///
  ///   AnalysisEngine::Transaction txn(engine);
  ///   txn.set_priority(a, engine.graph().task(b).priority)
  ///      .set_priority(b, engine.graph().task(a).priority);
  ///   txn.commit();
  class Transaction {
   public:
    /// @brief Start an empty batch against `engine`.
    explicit Transaction(AnalysisEngine& engine) : engine_(engine) {}
    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;

    /// Staged counterparts of the engine setters; arguments as there.
    Transaction& set_period(TaskId task, Duration period);
    Transaction& set_wcet_range(TaskId task, Duration bcet, Duration wcet);
    Transaction& set_priority(TaskId task, int priority);
    Transaction& set_policy(EcuId ecu, SchedPolicy policy);
    Transaction& set_buffer(TaskId from, TaskId to, int buffer_size);
    Transaction& set_offset(TaskId task, Duration offset);
    Transaction& add_edge(TaskId from, TaskId to, ChannelSpec spec = {});
    Transaction& remove_edge(TaskId from, TaskId to);

    /// @brief Number of staged edits.
    std::size_t size() const { return staged_.size(); }

    /// @brief Apply all staged edits as one commit (empty batches are
    /// no-ops).  The Transaction is spent afterwards.
    /// @throws PreconditionError if the batch is rejected (graph and
    ///   caches unchanged), or if already committed.
    /// Complexity: O(edits + affected region) — one validate(), one
    /// invalidation plan, one epoch bump.
    void commit();

   private:
    AnalysisEngine& engine_;
    std::vector<engine::Mutation> staged_;
    bool committed_ = false;
  };

  /// What a commit observer learns about one committed mutation batch:
  /// the commit epoch (monotonically increasing, one per commit) and the
  /// invalidation plan the engine derived from the batch.  `plan` is
  /// borrowed — valid only for the duration of the callback.
  /// plan.report_tasks is the exact set of tasks whose disparity report
  /// may have changed; this is what the cetad subscription layer threads
  /// through to its notifier (only dirtied sinks re-notify).
  struct CommitInfo {
    std::uint64_t epoch = 0;
    const engine::InvalidationPlan& plan;
  };
  using CommitObserver = std::function<void(const CommitInfo&)>;

  /// @brief Register `observer` to run after every committed mutation
  /// batch (replacing any previous observer; nullptr unregisters).  The
  /// observer runs on the committing thread, *after* the epoch bumps are
  /// published, so queries it issues observe the post-commit state.  Like
  /// mutations themselves it must not race concurrent commits.
  void set_commit_observer(CommitObserver observer);

  /// @brief Snapshot of the engine's private metrics registry: the cache
  /// counters ("engine.rta.runs", "engine.reports.hits", ...), the
  /// mutation / invalidation counters ("engine.mutate.commits",
  /// "engine.reports.stale", ...), the cache-retention gauge
  /// ("engine.mutate.retention_ppm", parts-per-million of post-commit
  /// lookups served from surviving entries) plus duration histograms for
  /// RTA and disparity computation.  Point-in-time consistent per
  /// instrument.
  ///
  /// Counting contract: each *logical* lookup is counted once, at the
  /// layer where it enters the engine.  disparity() counts one report
  /// lookup; the chain-set read it performs internally (to feed the pair
  /// kernel its chain set) is uncounted plumbing.  Direct chains() calls
  /// count at their own layer.  Uncounted reads still warm the cache and
  /// are still staleness-checked ("*.stale" counts them too).
  obs::MetricsSnapshot metrics() const;

  /// @brief The engine's private registry (stable for the engine's
  /// lifetime); exposed so callers can attach their own instruments to the
  /// same snapshot.
  obs::MetricsRegistry& metrics_registry() const { return metrics_; }

 private:
  /// Tag selecting the private deep-copy constructor behind clone().
  struct CloneTag {};
  /// Deep copy of `other`; the calling clone() holds every cache mutex of
  /// `other` for the duration.
  AnalysisEngine(const AnalysisEngine& other, CloneTag);

  struct ReportKey {
    TaskId task = 0;
    DisparityMethod method = DisparityMethod::kForkJoin;
    HopBoundMethod hop_method = HopBoundMethod::kNonPreemptive;
    std::size_t path_cap = 0;
    JointTruncation truncation = JointTruncation::kAuto;
    KeepPairs keep_pairs = KeepPairs::kAll;
    /// Normalized to 0 unless keep_pairs == kTopK (top_k is inert then, and
    /// must not split cache entries).
    std::size_t top_k = 0;
    /// Backend selector: distinct backends produce structurally different
    /// reports (chains/pairs vs source_pairs), so they must not share an
    /// entry even when their worst_case agrees.
    DisparityBackend backend = DisparityBackend::kAuto;
    bool operator==(const ReportKey&) const = default;
  };
  struct ReportKeyHash {
    std::size_t operator()(const ReportKey& k) const;
  };

  /// A cached value plus the commit epoch it was computed under; stale iff
  /// the stamp is older than any input's epoch.
  template <typename T>
  struct Stamped {
    T value;
    std::uint64_t stamp = 0;
  };
  struct ChainSetEntry {
    std::vector<Path> chains;
    std::uint64_t stamp = 0;
  };

  /// Cache instruments, resolved once against metrics_ (counter() takes
  /// the registry mutex; the references are wait-free afterwards).
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& r);
    obs::Counter& rta_runs;
    obs::Counter& chain_set_hits;
    obs::Counter& chain_set_misses;
    obs::Counter& report_hits;
    obs::Counter& report_misses;
    obs::Counter& chain_set_stale;
    obs::Counter& report_stale;
    obs::Counter& mutate_commits;
    obs::Counter& mutate_edits;
    obs::Counter& mutate_dirty_rta;
    obs::Counter& mutate_dirty_chain_sets;
    obs::Counter& mutate_dirty_reports;
    obs::Counter& rta_refreshed_tasks;
    obs::Counter& survived_hits;
    obs::Gauge& retention_ppm;
    obs::DurationHistogram& rta_compute;
    obs::DurationHistogram& disparity_compute;
  };

  void ensure_rta() const;

  // Counting-contract impl: `counted` selects whether this lookup bumps
  // the layer's hit/miss counters (false = internal plumbing on behalf of
  // an outer query).  Staleness checks and cache warming always happen.
  const std::vector<Path>& chains_impl(TaskId task, std::size_t path_cap,
                                       bool counted) const;

  /// Record a hit on an entry that predates the latest commit (survived
  /// invalidation) for the retention ratio.
  void note_survivor(std::uint64_t stamp) const;

  /// Apply one staged batch, then plan and commit the invalidation
  /// (single writer; takes every cache mutex).  Non-structural batches
  /// (no edge edits) are validated up front by validate_staged so applying
  /// cannot fail; structural batches fall back to snapshot-and-rollback.
  void apply_mutations(const std::vector<engine::Mutation>& edits);
  void apply_one(const engine::Mutation& m);
  /// Check a non-structural batch against the graph state it would
  /// produce — per-task parameter invariants on final values (so batched
  /// edits to one task, e.g. period + offset, are judged jointly),
  /// priority uniqueness against the ECU cohort's final priorities (so
  /// priority *swaps* batch-validate), buffer edits against existing
  /// edges.  Throws PreconditionError without touching any state; on
  /// success every apply_one of the batch is infallible, which is what
  /// lets apply_mutations skip the whole-graph snapshot + revalidation
  /// that otherwise dominate a single-edit commit.
  void validate_staged(const std::vector<engine::Mutation>& edits) const;

  TaskGraph graph_;
  EngineOptions opt_;

  // Per-engine registry: cache statistics never bleed across engines.
  mutable obs::MetricsRegistry metrics_;
  mutable Instruments ins_{metrics_};

  mutable std::mutex rta_mutex_;
  mutable std::unique_ptr<RtaResult> rta_;          // engine-owned mode
  mutable std::unique_ptr<ResponseTimeMap> external_rtm_;  // external mode
  /// Tasks whose RTA entry awaits a scoped refresh (drained by
  /// ensure_rta; sorted, unique).  Guarded by rta_mutex_.
  mutable std::vector<TaskId> rta_dirty_;

  // --- invalidation state --------------------------------------------------
  // Epochs are written during commits (all cache mutexes held) and read
  // under the respective cache mutex, which establishes the necessary
  // happens-before without extra synchronization.
  /// ECU cohorts of graph_: the scoped RTA refresh, the invalidation
  /// plan and the priority precheck read it.  ECU placement is immutable
  /// under the mutation API, so it is built once.
  EcuIndex ecus_;
  std::uint64_t commit_epoch_ = 0;
  std::vector<std::uint64_t> chain_set_epoch_;  // enumeration changed
  std::vector<std::uint64_t> report_epoch_;     // report inputs changed

  mutable std::mutex chain_set_mutex_;
  // Keyed by (task, cap); unique_ptr keeps returned references stable
  // across rehashes, and stale sets are refreshed *in place* so they stay
  // stable across mutations too.
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<ChainSetEntry>>
      chain_set_cache_;

  mutable std::mutex report_mutex_;
  mutable std::unordered_map<ReportKey,
                             Stamped<std::shared_ptr<const DisparityReport>>,
                             ReportKeyHash>
      report_cache_;

  /// Post-commit hook (subscription layers); runs outside every cache
  /// mutex on the committing thread.
  CommitObserver commit_observer_;
};

}  // namespace ceta
