// Randomized differential verification of the analysis stack.
//
// The paper's results are inequalities tying together quantities this
// library computes in several independent ways: Lemmas 4/5 bound the
// backward times that sim/backward.hpp measures from traces, Theorems 1/2
// bound the disparity the simulator observes and the exact LET oracle
// (disparity/exact.hpp) evaluates in closed form, Lemma 6/Theorem 3
// relate buffered and unbuffered bounds by an exact arithmetic shift, and
// the AnalysisEngine promises byte-identical results to the free
// functions.  A PropertyChecker draws seeded random task graphs (the
// evaluation's generators + WATERS workloads), randomizes release
// offsets, and checks every such cross-implementation invariant on every
// draw.  Violations are shrunk (verify/shrink.hpp) to a minimal failing
// graph and reported as reloadable fixtures (verify/fixture.hpp).
//
// Each property is checked by a single pure function, check_property(),
// that recomputes everything it needs from the graph alone — so the
// shrinker can re-evaluate exactly the failing property on candidate
// graphs, and a committed fixture replays with nothing but the graph
// text, the property name and the simulation seed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "graph/task_graph.hpp"

namespace ceta::verify {

/// One cross-checked invariant (see DESIGN.md §7 for the full statements).
enum class Property {
  kEngineMatchesFree,       ///< AnalysisEngine ≡ free functions, field-wise
  kBoundsOrdered,           ///< B(π) ≤ W(π) per chain (Lemmas 4/5)
  kSdiffLeqPdiff,           ///< Theorem 2 (clamped) ≤ Theorem 1
  kSimWithinBound,          ///< simulated disparity ≤ S-diff (Theorem 2)
  kBackwardInBounds,        ///< measured backward times ∈ [B(π), W(π)]
  kExactWithinBound,        ///< exact LET disparity ≤ analyzer bound
  kExactMatchesSim,         ///< exact LET oracle ≡ steady-state simulation
  kBufferedShift,           ///< Lemma 6: bounds shift by exactly (n−1)·T(π¹)
  kBufferDesignConsistent,  ///< Algorithm 1/Theorem 3 arithmetic invariants
  kMultiBufferSafe,         ///< multi-chain design ≤ baseline, = re-analysis
  /// Pairwise kernel ≡ reference analyzer, field-wise, at every
  /// DisparityMethod × JointTruncation × KeepPairs combination.
  kPairKernelMatchesReference,
  /// A warmed AnalysisEngine driven through a scripted mutation sequence
  /// (buffer resize, WCET/period edits, priority swap, offset nudge, edge
  /// add/remove) stays field-identical to a freshly constructed engine
  /// after every commit and every revert (DESIGN.md §9).
  kIncrementalMatchesFresh,
  /// DAG-DP backend ≡ enumerating kernel on every enumerable instance, at
  /// every DisparityMethod × JointTruncation combination: bit-identical
  /// worst_case whenever the DP claims exactness, and equal to the
  /// kIndependent + kNever enumeration otherwise (the DP's relaxation
  /// contract, DESIGN.md §10); the routed backend front door must always
  /// land on the exact result.
  kDagDpMatchesEnumeration,
  /// Monte-Carlo fleet (sim/montecarlo.hpp): every empirical disparity
  /// sample over a multi-seed replication batch stays within the
  /// analyzer's task-level bound, and the driver's aggregate is
  /// bit-identical between single-threaded and pooled execution.
  kMonteCarloWithinBounds,
  /// Every entry of an explore() campaign's Pareto archive
  /// (explore/explorer.hpp) revalidates: replaying its ConfigDelta onto a
  /// fresh AnalysisEngine reproduces the archived objective vector
  /// bit-for-bit.  Catches any drift between the explorer's rollback
  /// bookkeeping and the engine's actual configuration (the
  /// kSkipExploreRollback fault is the canonical example).
  kExploredConfigsRevalidate,
  /// Policy-aware RTA ≡ preemptive/EDF simulation: on a twin of the graph
  /// whose ECUs are assigned a seed-derived mix of dispatching disciplines
  /// (non-preemptive / preemptive FP / EDF), every task's simulated
  /// worst-observed response time stays ≤ the per-ECU policy-routed RTA.
  /// Exercises the preemptive busy-window and EDF processor-demand
  /// analyses differentially against sim/simulator.hpp's preemptive
  /// execution modes.
  kRtaPolicyMatchesSim,
  /// Theorem 2 under mixed policies: the simulated time disparity of the
  /// same mixed-policy twin stays ≤ the S-diff bound assembled from
  /// policy-routed hop bounds (Lemma 4's same-ECU refinements degrade
  /// soundly under preemptive FP and EDF dispatching).
  kMixedPolicyDisparityWithinBounds,
};

inline constexpr std::size_t kNumProperties = 17;

/// Stable lowercase identifier ("sim_within_bound", ...), used in fixture
/// files and reports.
const char* property_name(Property p);
std::optional<Property> property_from_name(std::string_view name);

/// Test-only mutation: weaken the analytical upper bounds by one head
/// period before comparing, so the oracles must flag them.  Used to prove
/// the harness can actually catch an unsound bound (and that the shrinker
/// converges); never enabled in production runs.
enum class FaultInjection {
  kNone,
  /// Subtract T(head) from W(π) and from the task-level disparity bound —
  /// the classic off-by-one of dropping one period term from a hop bound.
  kDropHeadPeriod,
  /// Build the probed AnalysisEngine with
  /// EngineOptions::fault_skip_edge_invalidation, so buffer-resize commits
  /// skip the report dirtying they seed and the cached disparity reports
  /// downstream of the resized channel go stale — the
  /// incremental_matches_fresh property must catch the divergence.
  /// Affects only that property.
  kSkipInvalidation,
  /// Run the DAG DP with DagDpOptions::fault_drop_source_period, so its
  /// combination step under-reports the final worst case by one source
  /// period — the dag_dp_matches_enumeration property must flag the
  /// divergence from the enumerating kernel.  Affects only that property.
  kCorruptDpSummary,
  /// Run the Monte-Carlo driver with
  /// MonteCarloOptions::fault_scale_samples = 1000, inflating every
  /// empirical disparity sample (the signature of a unit slip, e.g. us
  /// recorded as ns) — the montecarlo_within_bounds property must reject
  /// the batch.  Affects only that property.
  kCorruptMcSamples,
  /// Run the explorer with ExploreOptions::fault_skip_rollback, so the
  /// engine silently keeps one strategy-rejected buffer move the
  /// explorer's config mirror forgot — every later archive entry then
  /// carries a delta that cannot reproduce its objectives, which the
  /// explored_configs_revalidate property must catch.  Affects only that
  /// property.
  kSkipExploreRollback,
  /// Run the preemptive-FP busy-window analysis with
  /// RtaOptions::fault_drop_largest_hp, silently dropping the largest
  /// higher-priority interferer from every preemptive fixpoint — the
  /// rta_policy_matches_sim property must observe a simulated response
  /// time above the weakened WCRT.  Affects only that property.
  kDropPreemptiveInterference,
  /// Run the EDF processor-demand analysis with
  /// RtaOptions::fault_edf_undercount, shaving one job off every
  /// deadline-capped interference term — the rta_policy_matches_sim
  /// property must catch the underestimate on EDF ECUs.  Affects only
  /// that property.
  kEdfUndercount,
};

/// Everything a single property evaluation depends on besides the graph:
/// deterministic inputs only, so (graph, task, config) replays exactly.
struct ProbeConfig {
  std::uint64_t sim_seed = 1;
  /// Measured simulation window appended after the derived warm-up.
  Duration sim_window = Duration::ms(400);
  std::size_t path_cap = 4'000;
  /// Cap on exact-oracle releases per hyperperiod (CapacityError beyond —
  /// counted as a capacity skip, not a failure).
  std::size_t max_releases = 50'000;
  /// Skip simulation-backed properties when the derived warm-up + window
  /// horizon exceeds this (keeps pathological periods from stalling runs).
  Duration max_sim_horizon = Duration::s(30);
  /// Cap on the *estimated* job count of one simulation probe (Σ over
  /// tasks of horizon/period).  Shrinking halves periods aggressively, so
  /// a fixed measurement window can imply 10⁸+ jobs on a candidate; the
  /// estimate turns those into instant capacity skips and also backstops
  /// SimOptions::max_jobs.
  std::size_t max_sim_jobs = 250'000;
  FaultInjection fault = FaultInjection::kNone;
};

struct PropertyOutcome {
  enum class Status { kHolds, kViolated, kSkipped };
  Status status = Status::kHolds;
  /// Violation message or skip reason.
  std::string detail;
  /// True when the skip was a CapacityError (hyperperiod/path-cap/...).
  bool capacity_skip = false;

  bool violated() const { return status == Status::kViolated; }
};

/// Evaluate one property of `task` on `g`.  Never throws on analysis
/// capacity limits (returns a capacity skip); an unexpected ceta::Error
/// from inside the analysis stack is itself reported as a violation (an
/// invariant assertion firing on a valid graph *is* a bug).
PropertyOutcome check_property(Property p, const TaskGraph& g, TaskId task,
                               const ProbeConfig& cfg);

/// A shrunken counterexample, ready for fixture serialization.
struct Violation {
  Property property = Property::kBoundsOrdered;
  TaskGraph graph;  ///< minimal failing graph (offsets baked in)
  TaskId task = 0;
  std::uint64_t sim_seed = 1;
  std::string detail;        ///< from the original (pre-shrink) failure
  std::size_t shrink_rounds = 0;
  std::size_t original_tasks = 0;  ///< graph size before shrinking
};

struct CheckerOptions {
  std::uint64_t seed = 42;
  std::size_t trials = 200;
  /// Drawn graph sizes (task counts) for the G(n,m)/funnel topologies.
  std::size_t min_tasks = 5;
  std::size_t max_tasks = 12;
  int num_ecus = 3;
  /// Offset assignments (and thus property evaluations) per drawn graph.
  std::size_t offset_probes = 1;
  ProbeConfig probe;
  bool shrink = true;
  /// Stop the campaign early after this many violations.
  std::size_t max_violations = 8;
};

struct CheckerStats {
  std::size_t trials = 0;
  std::size_t graphs_checked = 0;       ///< admissible + schedulable draws
  std::size_t properties_checked = 0;   ///< individual property evaluations
  std::size_t skipped_unschedulable = 0;
  std::size_t skipped_degenerate = 0;   ///< < 2 source chains to the sink
  std::size_t skipped_capacity = 0;     ///< CapacityError skips (counted, never fatal)
  std::size_t skipped_other = 0;        ///< non-capacity property skips
};

struct CheckerReport {
  CheckerStats stats;
  std::vector<Violation> violations;
  bool ok() const { return violations.empty(); }
};

/// The campaign driver.  Deterministic in CheckerOptions::seed.
class PropertyChecker {
 public:
  explicit PropertyChecker(CheckerOptions opt = {});

  /// Draw `trials` random WATERS instances and check every property of
  /// each (the fixed-seed ctest smoke run calls exactly this).
  CheckerReport run();

  /// Check all properties of one concrete instance (offsets taken as-is),
  /// accumulating into `report`.  Public so tests and fixture replays can
  /// drive specific graphs through the identical code path.
  void check_instance(const TaskGraph& g, TaskId task, const ProbeConfig& cfg,
                      CheckerReport& report);

  const CheckerOptions& options() const { return opt_; }

 private:
  CheckerOptions opt_;
};

}  // namespace ceta::verify
