// Fig. 6(c)/(d) extension: multi-axis design-space fronts.
//
// Fig. 6(c)/(d) (fig6cd.hpp) evaluates the paper's single-axis design —
// Algorithm 1 buffer sizing on the worst chain pair — on merged two-chain
// WATERS instances.  This experiment puts the parallel explorer
// (explore/explorer.hpp) next to that baseline on the same instances: per
// chain-length point it computes
//
//   * the single-axis memory/disparity curve (engine/incremental.hpp:
//     buffer_pareto on the worst pair, priorities and offsets fixed), and
//   * the explorer's three-objective Pareto front co-optimizing
//     priorities, offsets and *all* channel depths,
//
// and reports the baseline's best bound against the explorer's best
// disparity both unconstrained and at the baseline's own memory budget —
// whether search over the joint space beats the closed-form single-channel
// design at equal memory.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace ceta {

struct ExploreFrontConfig {
  std::vector<std::size_t> chain_lengths = {5, 10, 15};
  int num_ecus = 4;
  /// WATERS parameterization seed base (scanned forward per point until
  /// the instance is schedulable).
  std::uint64_t seed = 20230402;
  /// Campaign seed / shape handed to explore().
  std::uint64_t explore_seed = 1;
  std::size_t moves_per_restart = 256;
  std::size_t restarts = 4;
  std::size_t num_threads = 0;
  int max_retries = 64;
};

struct ExploreFrontPoint {
  std::size_t chain_length = 0;
  std::uint64_t waters_seed = 0;
  /// Audsley-seeded starting configuration's objectives.
  Duration start_disparity;
  std::int64_t start_memory = 0;
  /// Single-axis baseline: best (last) bound of the Algorithm 1 sweep and
  /// the total memory at that design point.
  Duration baseline_best;
  std::int64_t baseline_memory = 0;
  std::size_t baseline_points = 0;
  /// Explorer front: best disparity overall, and best among entries whose
  /// memory stays within the baseline design's budget.
  Duration explore_best;
  std::int64_t explore_best_memory = 0;
  Duration explore_best_at_budget;
  std::size_t front_size = 0;
};

using ExploreFrontProgress = std::function<void(const std::string&)>;

/// Run the sweep.  Deterministic in (seed, explore_seed); num_threads
/// never changes the result (the explorer's determinism contract).
std::vector<ExploreFrontPoint> run_explore_front(
    const ExploreFrontConfig& cfg, const ExploreFrontProgress& progress = {});

}  // namespace ceta
