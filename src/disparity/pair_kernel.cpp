#include "disparity/pair_kernel.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "disparity/pairwise.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace ceta {

SuffixBoundTable::SuffixBoundTable(const TaskGraph& g, ChainView chain,
                                   const ResponseTimeMap& rtm,
                                   HopBoundMethod method)
    : chain_(chain), rtm_(&rtm) {
  // Mirror backward_bounds' check_chain so the kernel fails the same way
  // on the same inputs.
  CETA_EXPECTS(chain.size != 0, "backward bounds: empty chain");
  CETA_EXPECTS(rtm.size() == g.num_tasks(),
               "backward bounds: response-time map size mismatch");
  for (std::size_t i = 0; i + 1 < chain.size; ++i) {
    CETA_EXPECTS(g.has_edge(chain[i], chain[i + 1]),
                 "backward bounds: not a path of the graph");
  }
  for (const TaskId id : chain) {
    CETA_EXPECTS(id < g.num_tasks(),
                 "backward bounds: not a path of the graph");
    CETA_EXPECTS(rtm[id] != Duration::max(),
                 "backward bounds: task '" + g.task(id).name +
                     "' has no finite WCRT (unschedulable?)");
  }

  const std::size_t len = chain.size;
  wpre_.resize(len);
  bpre_.resize(len);
  fifo_lo_pre_.resize(len);
  bcet_pre_.resize(len + 1);
  let_pre_.resize(len + 1);
  wpre_[0] = bpre_[0] = fifo_lo_pre_[0] = Duration::zero();
  bcet_pre_[0] = Duration::zero();
  let_pre_[0] = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const Task& u = g.task(chain[i]);
    bcet_pre_[i + 1] = bcet_pre_[i] + u.bcet;
    const bool let_blocking =
        !g.is_source(chain[i]) && u.comm == CommSemantics::kLet;
    let_pre_[i + 1] = let_pre_[i] + (let_blocking ? 1u : 0u);
    if (i + 1 == len) continue;
    const Task& v = g.task(chain[i + 1]);
    // Per-hop FIFO shifts (Lemma 6 applied hop-wise).
    const int nbuf = g.channel(chain[i], chain[i + 1]).buffer_size;
    Duration fifo_up = Duration::zero();
    Duration fifo_lo = Duration::zero();
    if (nbuf > 1) {
      fifo_up = u.period * (nbuf - 1) + u.jitter;
      fifo_lo = u.period * (nbuf - 1) - u.jitter;
    }
    wpre_[i + 1] =
        wpre_[i] + hop_bound(g, chain[i], chain[i + 1], rtm, method) + fifo_up;
    fifo_lo_pre_[i + 1] = fifo_lo_pre_[i] + fifo_lo;
    // Mixed/LET per-hop lower bound (bcbt_bound's general branch).
    Duration b;
    if (g.is_source(chain[i])) {
      b = Duration::zero();
    } else if (u.comm == CommSemantics::kLet) {
      b = u.period;
    } else {
      b = u.bcet;
    }
    if (v.comm != CommSemantics::kLet) {
      b -= rtm.at(chain[i + 1]) - v.bcet;  // read delay of the consumer
    }
    bpre_[i + 1] = bpre_[i] + b + fifo_lo;
  }
}

BackwardBounds SuffixBoundTable::bounds(std::size_t first,
                                        std::size_t last) const {
  CETA_EXPECTS(first <= last && last < chain_.size,
               "SuffixBoundTable::bounds: bad sub-chain range");
  BackwardBounds out;
  if (first == last) {
    // A one-task chain's immediate backward job chain is the job itself.
    out.wcbt = Duration::zero();
    out.bcbt = Duration::zero();
    return out;
  }
  out.wcbt = wpre_[last] - wpre_[first];
  if (let_pre_[last + 1] - let_pre_[first] == 0) {
    // Lemma 5 (all-implicit sub-chain).
    out.bcbt = (bcet_pre_[last + 1] - bcet_pre_[first]) -
               rtm_->at(chain_[last]) +
               (fifo_lo_pre_[last] - fifo_lo_pre_[first]);
  } else {
    out.bcbt = bpre_[last] - bpre_[first];
  }
  return out;
}

namespace {

/// Read-only per-analysis context.
struct KernelState {
  const TaskGraph& g;
  const ResponseTimeMap& rtm;
  const DisparityOptions& opt;
  bool truncate;
  std::vector<ChainView> chains;       // views into the caller's Paths
  std::vector<SuffixBoundTable> tables;
  std::vector<BackwardBounds> full;    // == backward_bounds per chain
};

/// Mutable per-analysis workspace: a versioned stamp buffer holding the
/// current row's chain (no clearing per row), and decomposition scratch.
struct PairScratch {
  explicit PairScratch(std::size_t num_tasks)
      : stamp(num_tasks, 0), pos(num_tasks, 0) {}

  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> pos;  // position in the row's chain, if stamped
  std::uint32_t version = 0;
  std::vector<std::size_t> qa, qb;  // joint positions in a / b
  std::vector<BackwardBounds> wa, wb;
  std::vector<std::int64_t> x, y;
  std::uint64_t sdiff_pairs = 0;    // pairs that reached Theorem 2

  /// Stamp chain a (row i of the pair loop) with its task positions; every
  /// pair (i, j) of the row then scans only chain j against it.
  void stamp_row(ChainView a) {
    if (++version == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      version = 1;
    }
    for (std::size_t p = 0; p < a.size; ++p) {
      stamp[a[p]] = version;
      pos[a[p]] = static_cast<std::uint32_t>(p);
    }
  }
  bool stamped(TaskId t) const { return stamp[t] == version; }
};

/// Theorem 1 from precomputed bounds — mirror of the analyzer's
/// pdiff_from_bounds / pdiff_pair_bound tail.
Duration pdiff_from_views(const TaskGraph& g, ChainView a, ChainView b,
                          const BackwardBounds& ba, const BackwardBounds& bb) {
  const Duration o = independent_window_separation(ba, bb);
  if (a.front() == b.front() &&
      g.task(a.front()).jitter == Duration::zero()) {
    return floor_to_multiple(o, g.task(a.front()).period);
  }
  return o;
}

/// Mirror of the analyzer's structure_free, over views, with `a` the
/// row's stamped chain: distinct heads and exactly one shared task (the
/// tail).
bool structure_free_views(ChainView a, ChainView b, const PairScratch& s) {
  if (a.front() == b.front()) return false;
  std::size_t common = 0;
  for (const TaskId y : b) {
    if (s.stamped(y) && ++common > 1) return false;
  }
  return common == 1;
}

/// Theorem 2 on the (truncated) pair, with every sub-chain bound an O(1)
/// table lookup.  Mirrors sdiff_pair_bound + decompose_fork_join without
/// materializing joints or sub-chains: joint *positions* come from one
/// scan of b against the row stamp, sub-chains are index ranges of the
/// parent chains.
Duration sdiff_from_tables(const KernelState& st, std::size_t i,
                           std::size_t j, std::size_t la, std::size_t lb,
                           const BackwardBounds& ba, const BackwardBounds& bb,
                           PairScratch& s) {
  const ChainView a{st.chains[i].data, la};
  const ChainView b{st.chains[j].data, lb};
  const TaskGraph& g = st.g;

  // Joint positions (common tasks), from chain i's row stamp: scan the
  // truncated b.  Truncation cuts the same common suffix off both chains,
  // and a path holds each task once, so every shared task found lies in
  // the truncated a too.  Mirrors common_tasks' order check from the other
  // side: the shared tasks sit at strictly increasing a-positions exactly
  // when they sit at strictly increasing b-positions, so the (qa, qb)
  // sequence is the a-order scan's.
  s.qa.clear();
  s.qb.clear();
  std::size_t prev_pa = std::numeric_limits<std::size_t>::max();
  for (std::size_t p = 0; p < lb; ++p) {
    if (!s.stamped(b[p])) continue;
    const std::size_t pa = s.pos[b[p]];
    CETA_ASSERT(pa < la, "sdiff: shared task past the truncation point");
    CETA_EXPECTS(prev_pa == std::numeric_limits<std::size_t>::max() ||
                     pa > prev_pa,
                 "common_tasks: inconsistent order of shared tasks");
    prev_pa = pa;
    s.qa.push_back(pa);
    s.qb.push_back(p);
  }
  // Mirror fork_join_joints: drop a shared head, keep the analyzed tail.
  const bool shared_head = a.front() == b.front();
  std::size_t first_joint = 0;
  if (shared_head) {
    CETA_ASSERT(!s.qa.empty() && s.qa.front() == 0 && s.qb.front() == 0,
                "fork_join_joints: shared head must be first common task");
    first_joint = 1;
  }
  const std::size_t c = s.qa.size() - first_joint;
  CETA_ASSERT(c >= 1 && s.qa.back() == la - 1,
              "fork_join_joints: analyzed task must be a joint");
  const auto joint = [&](std::size_t k) -> TaskId {
    return a[s.qa[first_joint + k]];
  };

  // Jitter at a joint o_j (j < c) or at a shared head breaks the
  // multiple-of-period recursion; degrade to the Theorem 1 separation on
  // the (truncated) chains, without flooring — exactly the reference's
  // fallback path.
  bool jitter_blocks =
      shared_head && g.task(a.front()).jitter > Duration::zero();
  for (std::size_t k = 0; k + 1 < c; ++k) {
    if (g.task(joint(k)).jitter > Duration::zero()) jitter_blocks = true;
  }
  if (jitter_blocks) {
    return independent_window_separation(ba, bb);
  }

  // Sub-chain bounds α_k/β_k from the suffix tables: sub-chain k spans
  // [previous joint, joint k] (the first starts at the chain head) —
  // identical index arithmetic to split_at_joints.
  s.wa.resize(c);
  s.wb.resize(c);
  for (std::size_t k = 0; k < c; ++k) {
    const std::size_t a_first = k == 0 ? 0 : s.qa[first_joint + k - 1];
    const std::size_t b_first = k == 0 ? 0 : s.qb[first_joint + k - 1];
    s.wa[k] = st.tables[i].bounds(a_first, s.qa[first_joint + k]);
    s.wb[k] = st.tables[j].bounds(b_first, s.qb[first_joint + k]);
  }

  // x_j / y_j recursion, from the analyzed task backwards (Theorem 2).
  s.x.assign(c, 0);
  s.y.assign(c, 0);
  for (std::size_t k = c - 1; k-- > 0;) {
    const Duration t_j = g.task(joint(k)).period;
    const Duration t_j1 = g.task(joint(k + 1)).period;
    const Duration num_x =
        s.wa[k + 1].bcbt - s.wb[k + 1].wcbt + t_j1 * s.x[k + 1];
    const Duration num_y =
        s.wa[k + 1].wcbt - s.wb[k + 1].bcbt + t_j1 * s.y[k + 1];
    s.x[k] = ceil_div(num_x, t_j);
    s.y[k] = floor_div(num_y, t_j);
    CETA_ASSERT(s.x[k] <= s.y[k],
                "sdiff_pair_bound: empty release-offset range (x > y); "
                "backward-time bounds are inconsistent");
  }

  // Lemma 3 applied to (α_1, β_1).
  const Duration t_o1 = g.task(joint(0)).period;
  const Duration fa = s.wb[0].wcbt - s.wa[0].bcbt - t_o1 * s.x[0];
  const Duration fb = s.wb[0].bcbt - s.wa[0].wcbt - t_o1 * s.y[0];
  const Duration abs_a = fa < Duration::zero() ? -fa : fa;
  const Duration abs_b = fb < Duration::zero() ? -fb : fb;
  const Duration separation = std::max(abs_a, abs_b);
  if (shared_head) {
    return floor_to_multiple(separation, g.task(a.front()).period);
  }
  return separation;
}

/// Everything computed on the truncated chains of one pair: P-diff, and for
/// the fork–join method its min with S-diff.
Duration truncated_pair_bound(const KernelState& st, std::size_t i,
                              std::size_t j, std::size_t la, std::size_t lb,
                              PairScratch& s) {
  const ChainView a{st.chains[i].data, la};
  const ChainView b{st.chains[j].data, lb};
  const BackwardBounds ba = st.tables[i].bounds(0, la - 1);
  const BackwardBounds bb = st.tables[j].bounds(0, lb - 1);
  const Duration pdiff = pdiff_from_views(st.g, a, b, ba, bb);
  if (st.opt.method == DisparityMethod::kIndependent) return pdiff;
  ++s.sdiff_pairs;
  const Duration sdiff = sdiff_from_tables(st, i, j, la, lb, ba, bb, s);
  return std::min(sdiff, pdiff);
}

/// One pair through the kernel — mirrors pair_disparity_bound_from branch
/// for branch.  Chain i must be the scratch's stamped row.
Duration kernel_pair_bound(const KernelState& st, std::size_t i,
                           std::size_t j, PairScratch& s) {
  const ChainView a = st.chains[i];
  const ChainView b = st.chains[j];
  if (st.opt.method == DisparityMethod::kIndependent && !st.truncate) {
    return pdiff_from_views(st.g, a, b, st.full[i], st.full[j]);
  }
  if (structure_free_views(a, b, s)) {
    return pdiff_from_views(st.g, a, b, st.full[i], st.full[j]);
  }

  std::size_t la = a.size;
  std::size_t lb = b.size;
  if (st.truncate) {
    // Length of the maximal common suffix; keep everything up to and
    // including its first task (truncate_at_last_joint).
    std::size_t suf = 0;
    while (suf < la && suf < lb && a[la - 1 - suf] == b[lb - 1 - suf]) ++suf;
    CETA_ASSERT(suf >= 1, "truncate_at_last_joint: no common suffix");
    la -= suf - 1;
    lb -= suf - 1;
    CETA_ASSERT(!(ChainView{a.data, la} == ChainView{b.data, lb}),
                "pair_disparity_bound: distinct chains truncated to equal");
  }

  const Duration truncated = truncated_pair_bound(st, i, j, la, lb, s);
  if (st.opt.method == DisparityMethod::kIndependent) return truncated;
  // Fork–join: clamp by Theorem 1 on the full chains (reference line-up:
  // min(sdiff_trunc, pdiff_trunc, pdiff_full)).
  return std::min(truncated,
                  pdiff_from_views(st.g, a, b, st.full[i], st.full[j]));
}

/// Streaming ranked order shared with apply_keep_pairs: bound descending,
/// ties toward the smaller (chain_a, chain_b).
bool pair_better(const PairDisparity& p, const PairDisparity& q) {
  if (p.bound != q.bound) return q.bound < p.bound;
  if (p.chain_a != q.chain_a) return p.chain_a < q.chain_a;
  return p.chain_b < q.chain_b;
}

}  // namespace

DisparityReport pair_kernel_analyze(const TaskGraph& g,
                                    const std::vector<Path>& chains,
                                    const ResponseTimeMap& rtm,
                                    const DisparityOptions& opt) {
  obs::Span span("disparity", "pair_kernel");
  static obs::Counter& runs =
      obs::MetricsRegistry::global().counter("disparity.kernel.analyses");
  static obs::Counter& pairs_counter =
      obs::MetricsRegistry::global().counter("disparity.kernel.pairs");
  static obs::Counter& sdiff_counter =
      obs::MetricsRegistry::global().counter("disparity.kernel.sdiff_pairs");
  runs.add();
  opt.validate();

  DisparityReport report;
  report.worst_case = Duration::zero();
  report.chains = chains;
  report.chain_count = chains.size();

  const std::size_t n = chains.size();
  KernelState st{g, rtm, opt, disparity_uses_truncation(opt), {}, {}, {}};
  st.chains.reserve(n);
  st.tables.reserve(n);
  st.full.reserve(n);
  for (const Path& c : chains) {
    const ChainView v{c.data(), c.size()};
    st.chains.push_back(v);
    st.tables.emplace_back(g, v, rtm, opt.hop_method);
    st.full.push_back(st.tables.back().full());
  }

  const std::size_t total = n < 2 ? 0 : n * (n - 1) / 2;
  span.arg("chains", static_cast<std::int64_t>(n));
  span.arg("pairs", static_cast<std::int64_t>(total));
  pairs_counter.add(total);
  if (total == 0) return report;

  // One pass over the pairs (i < j, row-major).  kAll keeps every pair in
  // that order; kWorstOnly streams the best pair; kTopK keeps a max-heap by
  // "worseness" of at most top_k pairs, so the evictable one sits on top.
  PairScratch scratch(g.num_tasks());
  std::vector<PairDisparity>& kept = report.pairs;
  if (opt.keep_pairs == KeepPairs::kAll) kept.reserve(total);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.stamp_row(st.chains[i]);
    for (std::size_t j = i + 1; j < n; ++j) {
      const PairDisparity pair{i, j, kernel_pair_bound(st, i, j, scratch)};
      report.worst_case = std::max(report.worst_case, pair.bound);
      if (opt.keep_pairs == KeepPairs::kAll) {
        kept.push_back(pair);
      } else if (opt.keep_pairs == KeepPairs::kWorstOnly) {
        if (kept.empty()) {
          kept.push_back(pair);
        } else if (pair_better(pair, kept.front())) {
          kept.front() = pair;
        }
      } else if (kept.size() < opt.top_k) {
        kept.push_back(pair);
        std::push_heap(kept.begin(), kept.end(), pair_better);
      } else if (pair_better(pair, kept.front())) {
        std::pop_heap(kept.begin(), kept.end(), pair_better);
        kept.back() = pair;
        std::push_heap(kept.begin(), kept.end(), pair_better);
      }
    }
  }
  if (opt.keep_pairs == KeepPairs::kTopK) {
    std::sort(kept.begin(), kept.end(), pair_better);
  }
  sdiff_counter.add(scratch.sdiff_pairs);
  return report;
}

DisparityReport analyze_time_disparity_kernel(const TaskGraph& g, TaskId task,
                                              const ResponseTimeMap& rtm,
                                              const DisparityOptions& opt) {
  CETA_EXPECTS(task < g.num_tasks(), "analyze_time_disparity: bad task id");
  const std::vector<Path> chains =
      enumerate_source_chains(g, task, opt.path_cap);
  return pair_kernel_analyze(g, chains, rtm, opt);
}

}  // namespace ceta
