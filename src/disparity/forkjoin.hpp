// Theorem 2 — the fork–join-aware pairwise disparity bound (S-diff).
//
// Two chains λ, ν ending at the analyzed task are split at their common
// tasks {o_1, ..., o_c} into sub-chains α_1..α_c / β_1..β_c.  Starting
// from the shared analyzed job (x_c = y_c = 0), the recursion of Theorem 2
// propagates, joint by joint, the range [x_j·T(o_j), y_j·T(o_j)] of the
// difference of release times between the jobs of o_j reached by the two
// immediate backward job chains:
//
//   x_j = ceil( (B(α_{j+1}) − W(β_{j+1}) + x_{j+1}·T(o_{j+1})) / T(o_j) )
//   y_j = floor( (W(α_{j+1}) − B(β_{j+1}) + y_{j+1}·T(o_{j+1})) / T(o_j) )
//
// and the final bound applies Lemma 3 to the first sub-chain pair:
//
//   O = max{ |W(β_1) − B(α_1) − x_1·T(o_1)|, |B(β_1) − W(α_1) − y_1·T(o_1)| }
//
// floored to a multiple of T(λ^1) when the chains share their source.
// The same computation also yields the two *sampling windows* used by the
// buffer-design optimization (Algorithm 1).

#pragma once

#include <cstdint>
#include <vector>

#include "chain/backward_bounds.hpp"
#include "chain/subchain.hpp"
#include "common/interval.hpp"
#include "graph/paths.hpp"

namespace ceta {

/// Full output of the Theorem 2 computation for one chain pair.
struct ForkJoinBound {
  /// The disparity bound on |t(λ̄¹) − t(ν̄¹)| (Theorem 2, eq. (1)).
  Duration bound;
  /// O^{x1,y1}_{α1,β1} before the shared-source flooring.
  Duration separation;
  /// Joint tasks o_1..o_c (o_c = analyzed task).
  std::vector<TaskId> joints;
  /// x_j / y_j per joint (index aligned with `joints`).
  std::vector<std::int64_t> x;
  std::vector<std::int64_t> y;  ///< upper counterpart of `x`
  /// Backward-time bounds of the first sub-chain pair.
  BackwardBounds alpha1;
  BackwardBounds beta1;  ///< ν-side counterpart of `alpha1`
  /// Sampling windows of the two traced sources, anchored at the release
  /// of λ's o_1 job: t(λ̄¹) ∈ window_lambda, t(ν̄¹) ∈ window_nu
  /// (Lemma 1 / Lemma 2; Algorithm 1 lines 4–5).
  Interval window_lambda;
  Interval window_nu;        ///< ν's sampling window, same anchor
  bool shared_head = false;  ///< chains start at the same source task
  /// True when the fork-join recursion was inapplicable (a joint task or
  /// the shared head has release jitter, breaking the multiple-of-period
  /// arguments) and the bound fell back to the Theorem 1 computation on
  /// the full chains.
  bool degraded = false;
};

/// Theorem 2 bound for two non-identical chains of g ending at the same
/// task.  `rtm` maps TaskId to a safe WCRT bound.
ForkJoinBound sdiff_pair_bound(const TaskGraph& g, const Path& lambda,
                               const Path& nu, const ResponseTimeMap& rtm,
                               HopBoundMethod method =
                                   HopBoundMethod::kNonPreemptive);

}  // namespace ceta
