// Task-level worst-case time disparity analysis (Definition 2, §III).
//
// The worst-case time disparity of a task τ is bounded by enumerating all
// chains P from a source to τ and maximizing the pairwise bound (Theorem 1
// or Theorem 2) over all pairs.  Following the paper's closing remark of
// §III, each pair is first truncated at its *last joint task* — the start
// of the maximal common suffix — because the immediate backward job chain
// on a common suffix is unique, so both chains reach the same job there
// and contribute zero extra separation.

#pragma once

#include <cstddef>
#include <vector>

#include "chain/backward_bounds.hpp"
#include "disparity/forkjoin.hpp"
#include "disparity/pairwise.hpp"
#include "graph/paths.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta {

/// Which theorem bounds each chain pair.
enum class DisparityMethod {
  kIndependent,  ///< Theorem 1, "P-diff"
  /// Theorem 2 ("S-diff"), clamped by Theorem 1: both bounds are safe and
  /// Theorem 2 can exceed Theorem 1 by O(WCRT) in rare instances because
  /// its sub-chain decomposition re-counts response-time slack at joints.
  kForkJoin,
};

/// Whether to apply the last-joint truncation (§III closing remark) before
/// the pairwise bound.  kAuto matches the paper's evaluation: Theorem 2
/// ("S-diff") uses it, Theorem 1 ("P-diff") is applied to the full chains
/// — shared suffixes inflating Theorem 1 is precisely the imprecision the
/// paper's S-diff improves on.
enum class JointTruncation { kAuto, kAlways, kNever };

/// Which implementation serves a disparity query.
enum class DisparityBackend {
  /// Route automatically: enumerate when the chain count fits under
  /// DisparityOptions::path_cap, otherwise the DAG dynamic program —
  /// big sinks degrade to summary analysis instead of CapacityError.
  kAuto,
  /// Enumerate the chain set P and run the pairwise kernel.  Exact per
  /// the paper; throws CapacityError beyond path_cap.
  kEnumerate,
  /// DAG dynamic program over per-task path summaries (disparity/
  /// dag_dp.hpp): no chain materialization, with an automatic exact
  /// fallback to the enumerating kernel when joint structure or
  /// truncation demands it and the instance is enumerable.  See
  /// DESIGN.md §10 for the exactness contract.
  kDagDp,
};

/// How much of the O(|P|²) per-pair vector a disparity report
/// materializes.  worst_case is always the maximum over *all* pairs; this
/// only selects which PairDisparity entries are kept.
enum class KeepPairs {
  kAll,        ///< every (i, j) pair, in (i, j)-lexicographic order
  /// Only the single worst pair (ties broken toward the smallest
  /// (chain_a, chain_b)); empty when there are no pairs.
  kWorstOnly,
  /// The top_k largest bounds, sorted by bound descending (ties by
  /// (chain_a, chain_b) ascending).
  kTopK,
};

/// Knobs of the task-level analyzer (and of AnalysisEngine::disparity —
/// every distinct option tuple is a distinct cache entry there).
struct DisparityOptions {
  /// Pairwise bound: Theorem 1 (kIndependent) or Theorem 2 (kForkJoin).
  DisparityMethod method = DisparityMethod::kForkJoin;
  /// Per-hop bound used inside W(π): Lemma 4 or the agnostic baseline.
  HopBoundMethod hop_method = HopBoundMethod::kNonPreemptive;
  /// Cap on |P| (path enumeration); CapacityError beyond it.
  std::size_t path_cap = kDefaultPathCap;
  JointTruncation truncation = JointTruncation::kAuto;
  /// Pair-reporting mode; the kernel streams kWorstOnly/kTopK without
  /// ever materializing the full pair vector.
  KeepPairs keep_pairs = KeepPairs::kAll;
  /// Pairs kept when keep_pairs == kTopK (clamped to the pair count).
  std::size_t top_k = 16;
  /// Which implementation serves the query (see DisparityBackend).
  DisparityBackend backend = DisparityBackend::kAuto;

  /// Reject option tuples no backend can serve: out-of-range enum values,
  /// path_cap == 0, kTopK with top_k == 0, and kDagDp with
  /// KeepPairs::kAll (the DP never materializes the pair set, so "all
  /// pairs" is unsatisfiable by construction; use kTopK or kWorstOnly).
  /// Throws InvalidOptionsError.  The one validation path shared by the
  /// free analyzer, the kernel, the DP backend and AnalysisEngine.
  void validate() const;
};

/// Bound for one chain pair, for reporting.
struct PairDisparity {
  std::size_t chain_a = 0;  ///< indices into DisparityReport::chains
  std::size_t chain_b = 0;  ///< second index; chain_a < chain_b always
  Duration bound;           ///< disparity bound of this pair
};

/// Worst-pair witness at *source* granularity, reported by the DAG-DP
/// backend (which never materializes individual chains): the bound is the
/// maximum over all chain pairs (a from source_a, b from source_b).
/// source_a == source_b describes a pair of distinct chains from one
/// source.  source_a <= source_b always.
struct SourcePairDisparity {
  TaskId source_a = 0;
  TaskId source_b = 0;
  Duration bound;
};

/// Result of analyze_time_disparity / AnalysisEngine::disparity.
struct DisparityReport {
  /// Upper bound on the worst-case time disparity of the analyzed task;
  /// zero when it has fewer than two source chains.
  Duration worst_case;
  /// The enumerated chain set P (each from a source to the task).  Empty
  /// when `truncated` is set (DP-served query: P was never materialized).
  std::vector<Path> chains;
  /// Per-pair bounds: all |chains| choose 2 unordered pairs under
  /// KeepPairs::kAll, a filtered subset otherwise (see KeepPairs for the
  /// exact ordering contract).  Empty when `truncated` is set.
  std::vector<PairDisparity> pairs;
  /// Source-granularity worst pairs (DP-served queries only; empty when
  /// the chain set was enumerated).  Ranked like `pairs`: bound
  /// descending, ties by (source_a, source_b) ascending; KeepPairs
  /// governs how many are kept.
  std::vector<SourcePairDisparity> source_pairs;
  /// Which backend actually served the query — never kAuto; a kDagDp
  /// request that took the exact enumeration fallback reports kEnumerate.
  DisparityBackend backend = DisparityBackend::kEnumerate;
  /// True when worst_case is bit-identical to the paper's enumeration
  /// semantics (always for kEnumerate; for kDagDp see DESIGN.md §10).
  /// False marks a DP-relaxed safe upper bound.
  bool exact = true;
  /// |P|: number of source chains of the analyzed task (saturating; the
  /// DP computes it without enumeration).
  std::size_t chain_count = 0;
  /// True when chain_count saturated at SIZE_MAX (the true count is
  /// larger than representable).
  bool chain_count_saturated = false;
  /// True when the chain set was *not* materialized (`chains`/`pairs`
  /// empty, `source_pairs` filled) — the structured outcome that replaces
  /// a CapacityError throw on graphs beyond path_cap.
  bool truncated = false;
};

/// Bound the worst-case time disparity of `task`.  `rtm` maps every task
/// to a safe WCRT bound (see analyze_response_times); tasks on chains to
/// `task` must have finite WCRTs.
DisparityReport analyze_time_disparity(const TaskGraph& g, TaskId task,
                                       const ResponseTimeMap& rtm,
                                       const DisparityOptions& opt = {});

/// Truncate both chains at the start of their maximal common suffix; both
/// returned chains end at that joint.  Exposed for tests.
std::pair<Path, Path> truncate_at_last_joint(const Path& a, const Path& b);

/// Whether `opt` applies the last-joint truncation before the pairwise
/// bound (kAlways, or kAuto with the fork–join method).  Shared between
/// the reference analyzer and the pairwise kernel.
bool disparity_uses_truncation(const DisparityOptions& opt);

/// Apply DisparityOptions::keep_pairs to a fully materialized pair list
/// (in (i, j)-lexicographic order).  The single ordering contract shared
/// by the reference analyzer and the kernel's streaming accumulators:
/// pairs are ranked by bound descending, ties by (chain_a, chain_b)
/// ascending.
void apply_keep_pairs(std::vector<PairDisparity>& pairs,
                      const DisparityOptions& opt);

/// Bound for a single pair of chains under the given options (after
/// optional truncation).
Duration pair_disparity_bound(const TaskGraph& g, const Path& a,
                              const Path& b, const ResponseTimeMap& rtm,
                              const DisparityOptions& opt = {});

/// Pair bound reusing precomputed *full-chain* backward bounds; every
/// further (truncated/sub-)chain bound is evaluated on g under `rtm`.  The
/// core of analyze_time_disparity, which visits O(|P|²) pairs and must not
/// recompute the full-chain bounds per pair.
Duration pair_disparity_bound_from(const TaskGraph& g, const Path& a,
                                   const Path& b,
                                   const BackwardBounds& full_a,
                                   const BackwardBounds& full_b,
                                   const ResponseTimeMap& rtm,
                                   const DisparityOptions& opt);

}  // namespace ceta
