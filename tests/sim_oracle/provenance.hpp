// Token provenance: which sensor samples an output originates from.
//
// Definition 2 needs, for each job J, the timestamps of *all* J's sources.
// The time disparity Δ(J) is the max pairwise difference of those
// timestamps, which equals (max − min) over the whole multiset, so it
// suffices to track, per source task, the min and max timestamp that
// reaches the job along any chain — a compact summary that merges in
// O(#sources) at every hop.
//
// Test-only: the reference engine's provenance (reference_engine.hpp).
// The shipped Simulator keeps the same summary as dense min/max blocks.

#pragma once

#include <vector>

#include "common/time.hpp"
#include "graph/task.hpp"

namespace ceta {

/// Min/max timestamp of samples of one source task reaching a token.
struct SourceStamp {
  TaskId source = 0;
  Instant min_ts;
  Instant max_ts;
};

/// Sorted-by-source compact provenance summary.
class Provenance {
 public:
  Provenance() = default;

  /// Provenance of a fresh source sample.
  static Provenance of_source(TaskId source, Instant timestamp);

  /// Merge another provenance into this one (union, keeping min/max).
  void merge(const Provenance& other);

  bool empty() const { return stamps_.empty(); }
  std::size_t num_sources() const { return stamps_.size(); }
  const std::vector<SourceStamp>& stamps() const { return stamps_; }

  /// Time disparity of a job whose inputs carry this provenance:
  /// max timestamp − min timestamp over all sources; zero when fewer than
  /// one stamp is present.
  Duration disparity() const;

  /// Oldest / newest source timestamps; precondition: not empty.
  Instant min_timestamp() const;
  Instant max_timestamp() const;

 private:
  std::vector<SourceStamp> stamps_;  // sorted by source id
};

}  // namespace ceta
