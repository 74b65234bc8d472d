// Parallel design-space explorer on the incremental AnalysisEngine.
//
// ROADMAP item 5: co-optimize per-task priorities (Audsley-seedable via
// seed_priorities), source release offsets and per-channel FIFO depths
// against the three-objective target (worst-case disparity, worst-case
// data age, memory = Σ buffers).  The hot loop is the mutation API: a
// candidate move is one batched Transaction on a per-thread engine clone,
// scored with the memoized disparity/latency queries, and — when the
// strategy rejects it — rolled back by committing the inverse batch, so a
// move costs O(invalidated cache entries), never a fresh analysis
// (bench/perf_explore.cpp gates the resulting ≥5× over a
// fresh-engine-per-move baseline).
//
// Search is restart-based local search: each restart owns an engine clone
// (AnalysisEngine::clone — deep copy with warm caches) and walks
// `moves_per_restart` proposals drawn from a counter-based ExploreStream;
// restarts shard over a ThreadPool.  Determinism contract: every decision
// of restart r is a pure function of (seed, r, step), restarts never
// communicate during the walk, and the final front is the order-insensitive
// fold of the per-restart archives — so the same seed yields the same
// ExploreResult (entries, keys, epochs) on 1 and N threads.  Strategies:
// greedy hill-climb, simulated annealing (deterministic counter-based
// temperature/acceptance streams), or the portfolio that alternates both
// across restarts.  DESIGN.md §13 documents the move set, the archive
// semantics and this contract in full.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "explore/archive.hpp"
#include "graph/paths.hpp"
#include "graph/task_graph.hpp"

namespace ceta {
class AnalysisEngine;
}  // namespace ceta

namespace ceta::explore {

/// Search strategy of one campaign.
enum class Strategy {
  kHillClimb,  ///< greedy: accept strict scalarized improvements only
  kAnneal,     ///< simulated annealing with deterministic streams
  kPortfolio,  ///< alternate hill-climb / annealing across restarts
};

/// How candidate configurations are scored.
enum class ObjectiveMode {
  /// Analyzer bounds: Theorem 1/2 disparity and the Lemma 4/5 data-age
  /// bound.  Offset moves are *inert* here — release offsets enter no
  /// analyzer bound (DESIGN.md §9 row "offset") — so they only diversify
  /// annealing walks.
  kAnalyzer,
  /// Exact LET oracle (disparity/exact.hpp) for the disparity component;
  /// offsets then genuinely move the objective.  Requires the sink's
  /// ancestor closure to be LET + jitter-free, as exact_let_disparity.
  kExactLet,
};

struct ExploreOptions {
  Strategy strategy = Strategy::kPortfolio;
  ObjectiveMode objective = ObjectiveMode::kAnalyzer;
  /// Campaign seed; the only source of randomness (see determinism
  /// contract above).
  std::uint64_t seed = 1;
  /// Local-search moves proposed per restart (must be < 2^39 so step
  /// coordinates stay disjoint from the perturbation stream).
  std::size_t moves_per_restart = 512;
  /// Independent restarts; restart 0 starts at the base configuration,
  /// restart r > 0 first applies `perturb_moves` forced random moves.
  std::size_t restarts = 8;
  /// Worker threads restarts are sharded over; 0 = default_concurrency(),
  /// 1 = serial, at most ThreadPool::kMaxThreads.  Never changes the
  /// result, only the wall clock.
  std::size_t num_threads = 0;
  /// Largest FIFO depth a buffer move may propose.
  int max_buffer = 8;
  /// Offset moves snap to multiples of period / offset_grid.
  std::size_t offset_grid = 16;
  /// Forced moves perturbing the starting point of restarts > 0.
  std::size_t perturb_moves = 4;
  /// Chain-enumeration capacity for the objective queries.
  std::size_t path_cap = kDefaultPathCap;
  /// Release cap of the exact LET oracle (kExactLet only).
  std::size_t max_releases = 50'000;
  /// Annealing: initial temperature as a fraction of the restart's
  /// starting scalarized cost, and the per-move multiplicative cooling.
  double anneal_t0 = 0.05;
  double anneal_decay = 0.99;
  /// TEST ONLY — skip the engine rollback of the first strategy-rejected
  /// buffer move of restart 0, leaving the engine's graph silently ahead
  /// of the explorer's config mirror.  Every later archive entry then
  /// carries a delta that cannot reproduce its objective vector, which the
  /// `explored_configs_revalidate` verify property must catch
  /// (`verify_bounds --inject-explore-fault`).  Never set in production.
  bool fault_skip_rollback = false;

  /// @throws PreconditionError on out-of-range parameters.
  void validate() const;
};

/// Per-campaign counters (all deterministic in the seed).
struct ExploreStats {
  std::uint64_t proposed = 0;     ///< moves drawn from the stream
  std::uint64_t invalid = 0;      ///< proposals discarded before commit
  std::uint64_t accepted = 0;     ///< moves the strategy kept
  std::uint64_t rolled_back = 0;  ///< rejected moves undone via inverse txn
  std::uint64_t unschedulable = 0;  ///< committed then rolled back: RTA lost
  std::uint64_t evaluations = 0;  ///< objective-vector evaluations
  std::uint64_t archive_inserts = 0;
  std::uint64_t archive_evictions = 0;
  std::uint64_t archive_rejects = 0;
};

/// Outcome of one campaign.
struct ExploreResult {
  /// The Pareto front: canonically sorted (objectives, then key), each
  /// entry carrying the replayable ConfigDelta against the base graph.
  /// Front entry = best-disparity configuration (sort is disparity-major).
  std::vector<ArchiveEntry> archive;
  /// Objective vector of the base (starting) configuration.
  Objectives start;
  ExploreStats stats;
};

/// Evaluate the explorer's objective vector of `engine`'s *current*
/// configuration: disparity of `sink` per `opt.objective`, worst
/// max-data-age bound over the sink's source chains, Σ buffer depths.
/// Pure memoized query — safe on any engine, used by the explorer's hot
/// loop and by replay_objectives.
Objectives evaluate_objectives(const AnalysisEngine& engine, TaskId sink,
                               const ExploreOptions& opt);

/// Replay `entry.delta` onto a fresh AnalysisEngine over `base` and
/// re-evaluate.  The `explored_configs_revalidate` contract: for every
/// entry of an un-faulted campaign this returns exactly entry.objectives.
Objectives replay_objectives(const TaskGraph& base, const ArchiveEntry& entry,
                             TaskId sink, const ExploreOptions& opt);

/// Run a campaign against `base`'s current configuration, exploring the
/// design space of `sink`'s disparity.  `base` itself is never mutated
/// (each restart works on a clone); it must own its RTA (not external-rtm
/// mode) and its graph must be schedulable.  Counters are also published
/// to base.metrics_registry() ("explore.moves.proposed", ...).
/// @throws PreconditionError on invalid options or an unschedulable /
///   external-rtm base.
ExploreResult explore(const AnalysisEngine& base, TaskId sink,
                      const ExploreOptions& opt = {});

}  // namespace ceta::explore
