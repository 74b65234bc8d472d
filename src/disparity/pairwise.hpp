// Theorem 1 — the "independent chains" pairwise disparity bound (P-diff).
//
// For two chains λ, ν ∈ P ending at the analyzed task, Lemma 1 places the
// timestamp of the source traced through π inside the sampling window
// [−W(π), −B(π)] (release of the analyzed job anchored at 0).  Treating the
// chains as independent, the worst separation of the two windows is
//   O(λ,ν) = max{ |W(λ) − B(ν)|, |W(ν) − B(λ)| },
// and if the chains start at the *same* source, the separation must be a
// multiple of that source's period, so the bound is floored to one.

#pragma once

#include "chain/backward_bounds.hpp"
#include "common/interval.hpp"
#include "graph/paths.hpp"

namespace ceta {

/// Sampling window of the source traced through a chain with the given
/// backward-time bounds, anchored at r(J) = 0 (Lemma 1): [−W, −B].
Interval sampling_window(const BackwardBounds& b);

/// O(λ,ν) of Theorem 1 given both chains' backward-time bounds.
Duration independent_window_separation(const BackwardBounds& lambda,
                                       const BackwardBounds& nu);

/// Theorem 1 bound on |t(λ̄¹) − t(ν̄¹)| for two chains of g ending at the
/// same task.  Chains must be non-identical paths ending at the same task.
Duration pdiff_pair_bound(const TaskGraph& g, const Path& lambda,
                          const Path& nu, const ResponseTimeMap& rtm,
                          HopBoundMethod method =
                              HopBoundMethod::kNonPreemptive);

}  // namespace ceta
