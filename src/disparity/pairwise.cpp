#include "disparity/pairwise.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/tracer.hpp"

namespace ceta {

Interval sampling_window(const BackwardBounds& b) {
  CETA_EXPECTS(b.bcbt <= b.wcbt,
               "sampling_window: BCBT bound exceeds WCBT bound");
  return Interval(-b.wcbt, -b.bcbt);
}

Duration independent_window_separation(const BackwardBounds& lambda,
                                       const BackwardBounds& nu) {
  const Duration a = lambda.wcbt - nu.bcbt;
  const Duration b = nu.wcbt - lambda.bcbt;
  const Duration abs_a = a < Duration::zero() ? -a : a;
  const Duration abs_b = b < Duration::zero() ? -b : b;
  return std::max(abs_a, abs_b);
}

Duration pdiff_pair_bound(const TaskGraph& g, const Path& lambda,
                          const Path& nu, const ResponseTimeMap& rtm,
                          HopBoundMethod method) {
  obs::Span span("disparity", "pdiff_pair_bound");
  CETA_EXPECTS(!lambda.empty() && !nu.empty(),
               "pdiff_pair_bound: empty chain");
  CETA_EXPECTS(lambda.back() == nu.back(),
               "pdiff_pair_bound: chains must end at the same task");
  CETA_EXPECTS(lambda != nu, "pdiff_pair_bound: chains must differ");

  const BackwardBounds bl = backward_bounds(g, lambda, rtm, method);
  const BackwardBounds bn = backward_bounds(g, nu, rtm, method);
  const Duration o = independent_window_separation(bl, bn);

  if (lambda.front() == nu.front() &&
      g.task(lambda.front()).jitter == Duration::zero()) {
    // Same strictly periodic source: the timestamp difference is a
    // multiple of its period.  (With release jitter the difference is
    // k·T ± J, so the flooring argument no longer applies.)
    return floor_to_multiple(o, g.task(lambda.front()).period);
  }
  return o;
}

}  // namespace ceta
