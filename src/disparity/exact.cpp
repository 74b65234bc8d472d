#include "disparity/exact.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "graph/algorithms.hpp"

namespace ceta {

namespace {

/// Timestamp of the source sample a job released at `t_read` consumes
/// through `chain` (deterministic LET arithmetic).  Asserts the system is
/// past warm-up (all traced job indices non-negative).
///
/// Tie-breaking at exact coincidence instants (audited, pinned by
/// tests/test_exact.cpp boundary tests): a publish at exactly t IS
/// visible to a read at t.  This matches Definition 1 ("finishes no later
/// than the start") and the simulator's event order (finish/publish
/// before release at equal instants — EventKind in
/// sim/calendar_queue.hpp).  floor_div gives precisely that semantics on
/// both branches: at t = o + (k+1)·T the non-source branch selects job k,
/// whose publish instant is t itself, and at t = o + k·T the source
/// branch selects the sample stamped t.
Instant trace_source_timestamp(const TaskGraph& g, const Path& chain,
                               Instant t_read) {
  Instant t = t_read;
  for (std::size_t i = chain.size(); i-- > 1;) {
    const TaskId producer = chain[i - 1];
    const Task& p = g.task(producer);
    const int buffer = g.channel(producer, chain[i]).buffer_size;
    std::int64_t k;
    if (g.is_source(producer)) {
      // Latest sample at or before t (samples at offset + k·T).
      k = floor_div(t - p.offset, p.period);
    } else {
      // Latest publish at or before t (publishes at offset + (k+1)·T).
      k = floor_div(t - p.offset, p.period) - 1;
    }
    k -= buffer - 1;  // FIFO: read the oldest of the last n tokens
    CETA_ASSERT(k >= 0, "exact_let_disparity: traced before warm-up");
    t = p.offset + p.period * k;  // producer job's release = its read time
  }
  return t;
}

/// Max over `chains` of Σ_hops (buffer+1)·T(producer) — see
/// exact_warmup_horizon for why this suffices.
Duration horizon_over_chains(const TaskGraph& g,
                             const std::vector<Path>& chains) {
  Duration deepest = Duration::zero();
  for (const Path& chain : chains) {
    Duration span = Duration::zero();
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      span += g.task(chain[i]).period *
              (1 + g.channel(chain[i], chain[i + 1]).buffer_size);
    }
    deepest = std::max(deepest, span);
  }
  return deepest;
}

}  // namespace

// Why Σ (buffer+1)·T per hop is a sufficient warm-up horizon: consider
// tracing one hop backward through producer p with period T, offset
// o ∈ [0, T) and FIFO depth n, from instant t.
//   * non-source: k = ⌊(t−o)/T⌋ − 1 − (n−1) = ⌊(t−o)/T⌋ − n, so k ≥ 0
//     iff t ≥ o + n·T, which t ≥ (n+1)·T implies;
//   * source:     k = ⌊(t−o)/T⌋ − (n−1),     so k ≥ 0 iff t ≥ o + (n−1)·T,
//     which t ≥ n·T implies;
//   * either way the traced instant t' = o + k·T satisfies
//     t' > t − (n+1)·T  (since ⌊x/T⌋ > x/T − 1 and o ≥ 0),
//     i.e. one hop moves the instant back by less than (n+1)·T.
// Accumulating the per-hop decrements along a chain: a read at
// t ≥ Σ_hops (n_i+1)·T_i reaches every hop with enough slack left for
// that hop's own requirement, so every traced index is non-negative.
// Taking the max over all chains covers them all.  (The previous
// implementation summed unproven ×3-period terms over the whole ancestor
// closure *plus* per-hop terms over every chain — always larger, never
// justified.)
Duration exact_warmup_horizon(const TaskGraph& g, TaskId task,
                              std::size_t path_cap) {
  CETA_EXPECTS(task < g.num_tasks(), "exact_warmup_horizon: bad task id");
  return horizon_over_chains(g, enumerate_source_chains(g, task, path_cap));
}

ExactLetResult exact_let_disparity(const TaskGraph& g, TaskId task,
                                   std::size_t path_cap,
                                   std::size_t max_releases) {
  CETA_EXPECTS(task < g.num_tasks(), "exact_let_disparity: bad task id");
  g.validate();

  const std::vector<TaskId> closure = ancestors(g, task);
  std::vector<std::int64_t> periods;
  for (const TaskId id : closure) {
    const Task& t = g.task(id);
    CETA_EXPECTS(g.is_source(id) || t.comm == CommSemantics::kLet,
                 "exact_let_disparity: task '" + t.name +
                     "' is not LET; the analysis needs a deterministic "
                     "(fully LET) ancestor closure");
    CETA_EXPECTS(t.jitter == Duration::zero(),
                 "exact_let_disparity: task '" + t.name +
                     "' has release jitter");
    periods.push_back(t.period.count());
  }

  const std::vector<Path> chains =
      enumerate_source_chains(g, task, path_cap);
  ExactLetResult out;
  out.worst_disparity = Duration::zero();
  out.worst_release = Instant::zero();
  if (chains.size() < 2) return out;

  const Duration hyper = hyperperiod(periods.data(), periods.size());
  const Task& analyzed = g.task(task);
  const std::int64_t releases = floor_div(hyper, analyzed.period);
  CETA_EXPECTS(releases >= 1, "exact_let_disparity: degenerate hyperperiod");
  if (static_cast<std::size_t>(releases) > max_releases) {
    throw CapacityError(
        "exact_let_disparity: hyperperiod spans too many releases");
  }

  // Start at the first release past the derived sufficient horizon (plus
  // one hyperperiod of margin, so the scanned window is certainly in
  // steady state), clamped to the task's first release: the horizon is
  // tight enough that large analyzed-task offsets could otherwise push k0
  // negative.
  const Duration warmup = horizon_over_chains(g, chains) + hyper;
  const std::int64_t k0 = std::max<std::int64_t>(
      0, ceil_div(warmup - analyzed.offset, analyzed.period));
  out.releases_examined = static_cast<std::size_t>(releases);
  for (std::int64_t k = k0; k < k0 + releases; ++k) {
    const Instant release = analyzed.offset + analyzed.period * k;
    Instant min_ts = Duration::max();
    Instant max_ts = Duration::min();
    for (const Path& chain : chains) {
      const Instant ts = trace_source_timestamp(g, chain, release);
      min_ts = std::min(min_ts, ts);
      max_ts = std::max(max_ts, ts);
    }
    const Duration disparity = max_ts - min_ts;
    if (disparity > out.worst_disparity) {
      out.worst_disparity = disparity;
      out.worst_release = release;
    }
  }
  return out;
}

}  // namespace ceta
