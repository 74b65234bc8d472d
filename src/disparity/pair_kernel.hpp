// Pairwise-analysis kernel — the optimized inner loop of task-level
// disparity analysis (Theorems 1/2 over all chain pairs of one sink).
//
// The reference path (analyze_time_disparity / pair_disparity_bound_from)
// re-derives every truncated-chain and fork–join sub-chain backward bound
// by walking the chains per pair: with K chains of length L and c joints
// per pair, that is O(K² · c · L) hop evaluations.  This kernel exploits
// two structural facts of enumerated chain sets:
//
//  1. Backward bounds compose hop-by-hop.  W(π) is a sum of per-hop θ
//     terms plus per-hop FIFO shifts, and B(π) is either a sum of task
//     BCETs minus the tail's read delay (all-implicit chains, Lemma 5) or
//     a sum of per-hop lower-bound terms (mixed/LET chains) — all exact
//     int64 sums.  One O(L) prefix-sum pass per chain (SuffixBoundTable)
//     therefore answers W/B of *any* contiguous sub-chain in O(1):
//     truncated chains are prefixes, fork–join sub-chains are infixes.
//  2. Every pair of row i shares chain i.  The pair loop stamps chain i's
//     tasks with their positions once per row, so each pair (i, j) finds
//     its joints — and decides whether it is structure-free — with one
//     scan of chain j, with no per-pair clearing or copies.  Truncated
//     chains are prefix views (offset+length) of the caller's Paths.
//
// The K² pair loop is one serial pass, and DisparityOptions::keep_pairs
// selects how much of the O(K²) pair vector is materialized.  Results are
// bit-identical to the reference analyzer in every mode (verified by
// verify::Property::kPairKernelMatchesReference and tests/
// test_pair_kernel.cpp): Duration arithmetic is exact int64, so prefix-sum
// reassociation cannot change a single bit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chain/backward_bounds.hpp"
#include "disparity/analyzer.hpp"
#include "graph/paths.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta {

/// Non-owning view of a caller-owned chain (or a prefix of one); valid
/// while the underlying Path is.
struct ChainView {
  const TaskId* data = nullptr;
  std::size_t size = 0;

  const TaskId* begin() const { return data; }
  const TaskId* end() const { return data + size; }
  TaskId operator[](std::size_t i) const { return data[i]; }
  TaskId front() const { return data[0]; }
  TaskId back() const { return data[size - 1]; }

  friend bool operator==(const ChainView& a, const ChainView& b) {
    if (a.size != b.size) return false;
    for (std::size_t i = 0; i < a.size; ++i) {
      if (a.data[i] != b.data[i]) return false;
    }
    return true;
  }
};

/// O(L) prefix-sum tables over one chain, answering the backward-time
/// bounds of any contiguous sub-chain [first, last] (inclusive, indices
/// into the chain) in O(1) — bit-identical to backward_bounds() on the
/// materialized sub-chain.  The chain view and the response-time map must
/// outlive the table.
class SuffixBoundTable {
 public:
  SuffixBoundTable(const TaskGraph& g, ChainView chain,
                   const ResponseTimeMap& rtm, HopBoundMethod method);

  /// W/B of the sub-chain chain[first..last].  A single task has zero
  /// backward time by definition.
  BackwardBounds bounds(std::size_t first, std::size_t last) const;

  /// Bounds of the whole chain (== backward_bounds on it).
  BackwardBounds full() const { return bounds(0, chain_.size - 1); }

  ChainView chain() const { return chain_; }

 private:
  ChainView chain_;
  const ResponseTimeMap* rtm_;
  /// Prefix sums over hops: wpre_[i] = Σ_{t<i} (θ_t + fifo_upper_t), so a
  /// sub-chain's W is one subtraction.  Duration is exact int64 —
  /// reassociating the reference's left-to-right sum is lossless.
  std::vector<Duration> wpre_;
  /// Prefix sums of the mixed/LET per-hop lower-bound terms (b_t +
  /// fifo_lower_t) of bcbt_bound's general branch.
  std::vector<Duration> bpre_;
  /// Prefix sums of task BCETs and of fifo_lower terms, for Lemma 5's
  /// tighter all-implicit branch.
  std::vector<Duration> bcet_pre_;
  std::vector<Duration> fifo_lo_pre_;
  /// Prefix count of non-source LET tasks: a sub-chain is "all implicit"
  /// iff its count is zero — selects between the two B branches.
  std::vector<std::uint32_t> let_pre_;
};

/// Analyze `task` with the kernel; bit-identical to analyze_time_disparity
/// with the same options.
DisparityReport analyze_time_disparity_kernel(const TaskGraph& g, TaskId task,
                                              const ResponseTimeMap& rtm,
                                              const DisparityOptions& opt = {});

/// Kernel core over a pre-enumerated chain set (the engine passes its
/// memoized set).  The report's chain vector is a copy of `chains`.
DisparityReport pair_kernel_analyze(const TaskGraph& g,
                                    const std::vector<Path>& chains,
                                    const ResponseTimeMap& rtm,
                                    const DisparityOptions& opt);

}  // namespace ceta
