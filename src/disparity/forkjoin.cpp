#include "disparity/forkjoin.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math.hpp"
#include "disparity/pairwise.hpp"
#include "obs/tracer.hpp"

namespace ceta {

ForkJoinBound sdiff_pair_bound(const TaskGraph& g, const Path& lambda,
                               const Path& nu, const ResponseTimeMap& rtm,
                               HopBoundMethod method) {
  obs::Span span("disparity", "sdiff_pair_bound");
  CETA_EXPECTS(!lambda.empty() && !nu.empty(), "sdiff_pair_bound: empty chain");
  CETA_EXPECTS(lambda.back() == nu.back(),
               "sdiff_pair_bound: chains must end at the same task");
  CETA_EXPECTS(lambda != nu, "sdiff_pair_bound: chains must differ");

  ForkJoinBound out;
  const ForkJoinDecomposition d = decompose_fork_join(lambda, nu);
  out.joints = d.joints;
  out.shared_head = d.shared_head;
  const std::size_t c = d.joints.size();

  // The x/y recursion and the final flooring rely on joint releases (and
  // a shared source's timestamps) differing by exact period multiples.
  // Release jitter at a joint o_j (j < c) or at a shared head breaks
  // that; fall back to the independent-window computation (Theorem 1 on
  // the full chains) in that case.
  bool jitter_blocks = d.shared_head &&
                       g.task(lambda.front()).jitter > Duration::zero();
  for (std::size_t j = 0; j + 1 < c; ++j) {
    if (g.task(d.joints[j]).jitter > Duration::zero()) jitter_blocks = true;
  }
  if (jitter_blocks) {
    out.degraded = true;
    const BackwardBounds bl = backward_bounds(g, lambda, rtm, method);
    const BackwardBounds bn = backward_bounds(g, nu, rtm, method);
    out.alpha1 = bl;
    out.beta1 = bn;
    out.x.assign(c, 0);
    out.y.assign(c, 0);
    out.separation = independent_window_separation(bl, bn);
    out.bound = out.separation;  // no flooring under jitter
    out.window_lambda = Interval(-bl.wcbt, -bl.bcbt);
    out.window_nu = Interval(-bn.wcbt, -bn.bcbt);
    return out;
  }

  // Backward-time bounds of every sub-chain pair.
  std::vector<BackwardBounds> wa(c), wb(c);
  for (std::size_t i = 0; i < c; ++i) {
    wa[i] = backward_bounds(g, d.alpha[i], rtm, method);
    wb[i] = backward_bounds(g, d.beta[i], rtm, method);
  }
  out.alpha1 = wa[0];
  out.beta1 = wb[0];

  // x_j / y_j recursion, from the analyzed task backwards (Theorem 2).
  out.x.assign(c, 0);
  out.y.assign(c, 0);
  for (std::size_t j = c - 1; j-- > 0;) {
    const Duration t_j = g.task(d.joints[j]).period;
    const Duration t_j1 = g.task(d.joints[j + 1]).period;
    const Duration num_x = wa[j + 1].bcbt - wb[j + 1].wcbt + t_j1 * out.x[j + 1];
    const Duration num_y = wa[j + 1].wcbt - wb[j + 1].bcbt + t_j1 * out.y[j + 1];
    out.x[j] = ceil_div(num_x, t_j);
    out.y[j] = floor_div(num_y, t_j);
    CETA_ASSERT(out.x[j] <= out.y[j],
                "sdiff_pair_bound: empty release-offset range (x > y); "
                "backward-time bounds are inconsistent");
  }

  // Lemma 3 applied to (α_1, β_1) with the release of ν's o_1 job offset by
  // k·T(o_1), k ∈ [x_1, y_1].
  const Duration t_o1 = g.task(d.joints[0]).period;
  const Duration a = wb[0].wcbt - wa[0].bcbt - t_o1 * out.x[0];
  const Duration b = wb[0].bcbt - wa[0].wcbt - t_o1 * out.y[0];
  const Duration abs_a = a < Duration::zero() ? -a : a;
  const Duration abs_b = b < Duration::zero() ? -b : b;
  out.separation = std::max(abs_a, abs_b);

  if (d.shared_head) {
    out.bound = floor_to_multiple(out.separation,
                                  g.task(lambda.front()).period);
  } else {
    out.bound = out.separation;
  }

  // Sampling windows (Lemma 1 for λ, Lemma 2 for ν), anchored at the
  // release of λ's o_1 job (= 0).  Their max separation equals
  // `separation` above; Algorithm 1 aligns their midpoints.
  out.window_lambda = Interval(-wa[0].wcbt, -wa[0].bcbt);
  out.window_nu = Interval(t_o1 * out.x[0] - wb[0].wcbt,
                           t_o1 * out.y[0] - wb[0].bcbt);
  return out;
}

}  // namespace ceta
