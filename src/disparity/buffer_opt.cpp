#include "disparity/buffer_opt.hpp"

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/tracer.hpp"

namespace ceta {

BufferDesign design_buffer(const TaskGraph& g, const Path& lambda,
                           const Path& nu, const ResponseTimeMap& rtm,
                           HopBoundMethod method) {
  obs::Span span("disparity", "design_buffer");
  const ForkJoinBound fj = sdiff_pair_bound(g, lambda, nu, rtm, method);
  BufferDesign d;
  d.baseline_bound = fj.bound;
  d.optimized_bound = fj.bound;
  d.window_lambda = fj.window_lambda;
  d.window_nu = fj.window_nu;
  d.shift = Duration::zero();

  // Midpoint comparison in doubled coordinates (midpoints can be
  // half-integral nanoseconds): M2 = A + B.
  const std::int64_t m2_lambda = fj.window_lambda.doubled_midpoint();
  const std::int64_t m2_nu = fj.window_nu.doubled_midpoint();

  const bool on_lambda = m2_lambda >= m2_nu;
  const Path& chosen = on_lambda ? lambda : nu;
  d.buffer_on_lambda = on_lambda;

  if (chosen.size() < 2) {
    // The analyzed task is itself the source of the chosen chain; there is
    // no channel to buffer.  Keep the trivial design.
    d.from = d.to = chosen.front();
    return d;
  }
  d.from = chosen[0];
  d.to = chosen[1];
  CETA_EXPECTS(g.channel(d.from, d.to).buffer_size == 1,
               "design_buffer: head channel already buffered; design "
               "assumes the base (size-1) configuration");

  const Duration t_head = g.task(chosen.front()).period;
  const std::int64_t diff2 =
      on_lambda ? m2_lambda - m2_nu : m2_nu - m2_lambda;
  // floor((M_right − M_left) / T) computed on doubled values.
  const std::int64_t k = floor_div(diff2, 2 * t_head.count());
  CETA_ASSERT(k >= 0, "design_buffer: negative shift multiplier");

  d.buffer_size = static_cast<int>(k) + 1;
  d.shift = t_head * k;

  // Theorem 3: the Theorem 2 bound (including its shared-source flooring)
  // drops by exactly L.
  d.optimized_bound = d.baseline_bound - d.shift;
  return d;
}

void apply_buffer_design(TaskGraph& g, const BufferDesign& design) {
  if (design.buffer_size <= 1) return;
  g.set_buffer_size(design.from, design.to, design.buffer_size);
}

void apply_multi_buffer_design(TaskGraph& g,
                               const MultiBufferDesign& design) {
  for (const ChannelBuffer& cb : design.channels) {
    g.set_buffer_size(cb.from, cb.to, cb.buffer_size);
  }
}

}  // namespace ceta
