#include "disparity/dag_dp.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/backward_bounds.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "disparity/pair_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace ceta {

namespace {

std::uint8_t sat2(unsigned x) {
  return static_cast<std::uint8_t>(x >= 2 ? 2 : x);
}
std::uint8_t sat3(unsigned x) {
  return static_cast<std::uint8_t>(x >= 3 ? 3 : x);
}

/// Top-2 maxima of one per-chain functional over a chain multiset, with
/// the achiever count of the maximum (saturated at 2 — "unique or not" is
/// all the distinct-pair corner needs) and witness sources.  v2 is the
/// best value *strictly below* v1, so "max excluding one achiever of v1"
/// is v1 when c1 >= 2 and v2 otherwise; t1 witnesses a second distinct
/// achiever of v1 when one exists (s2 cannot serve — it witnesses the
/// second-best *value*, not a tie).  Closed under per-edge shifts and
/// under merging, which is what makes the DP go.
struct Best2 {
  Duration v1 = Duration::zero();
  Duration v2 = Duration::zero();
  TaskId s1 = 0;  ///< witness source of an achiever of v1
  TaskId s2 = 0;  ///< witness source of an achiever of v2
  TaskId t1 = 0;  ///< source of a second distinct achiever of v1 (c1 >= 2)
  std::uint8_t c1 = 0;  ///< achievers of v1, saturated at 2; 0 = empty
  bool has2 = false;

  void init(Duration v, TaskId s) {
    v1 = v;
    s1 = s;
    c1 = 1;
    has2 = false;
  }
  void shift(Duration d) {
    v1 += d;
    if (has2) v2 += d;
  }
  void offer_second(Duration v, TaskId s) {
    if (!has2 || v > v2) {
      v2 = v;
      s2 = s;
      has2 = true;
    }
  }
  /// Fold in an achiever set: `cnt` chains of value v witnessed by source
  /// s, with `tie` the second-achiever witness when cnt >= 2.
  void offer(Duration v, TaskId s, std::uint8_t cnt, TaskId tie) {
    if (c1 == 0) {
      v1 = v;
      s1 = s;
      c1 = cnt;
      t1 = tie;
      return;
    }
    if (v > v1) {
      offer_second(v1, s1);
      v1 = v;
      s1 = s;
      c1 = cnt;
      t1 = tie;
    } else if (v == v1) {
      // The offered chains are distinct from the incumbent witness chain,
      // so any of them serves as the second-achiever witness.
      t1 = s;
      c1 = sat2(static_cast<unsigned>(c1) + cnt);
    } else {
      offer_second(v, s);
    }
  }
  void merge(const Best2& o) {
    if (o.c1 == 0) return;
    offer(o.v1, o.s1, o.c1, o.t1);
    if (o.has2) offer_second(o.v2, o.s2);
  }
};

/// Aggregates of one finalized (or class-L) chain set: top-2 of W, top-2
/// of −B, the number of chains achieving both maxima jointly (the
/// distinct-pair corner needs to know whether the W-maximizer and the
/// B-minimizer can be chosen distinct), the chain count (saturated at 3 —
/// only "0 / 1 / at least 2" matters), and the invariant witness
/// max(B − W) (Theorem 1 requires bcbt <= wcbt per chain; see
/// sampling_window, which states the same precondition).
struct ClassAgg {
  Best2 w;   ///< max over W(π)
  Best2 nb;  ///< max over −B(π)
  Duration fbw = Duration::zero();  ///< max over B(π) − W(π)
  std::uint8_t both = 0;  ///< joint achievers of (w.v1, nb.v1), sat 2
  std::uint8_t cnt = 0;   ///< chains, sat 3

  bool empty() const { return cnt == 0; }
  void merge(const ClassAgg& o) {
    if (o.empty()) return;
    if (empty()) {
      *this = o;
      return;
    }
    const Duration w1 = std::max(w.v1, o.w.v1);
    const Duration b1 = std::max(nb.v1, o.nb.v1);
    unsigned joint = 0;
    if (w.v1 == w1 && nb.v1 == b1) joint += both;
    if (o.w.v1 == w1 && o.nb.v1 == b1) joint += o.both;
    w.merge(o.w);
    nb.merge(o.nb);
    fbw = std::max(fbw, o.fbw);
    both = sat2(joint);
    cnt = sat3(static_cast<unsigned>(cnt) + o.cnt);
  }
};

/// Class-I ("all-implicit so far") aggregates.  B(π) of an all-implicit
/// chain is Σ bcet − R(tail) + Σ fifo_lower (Lemma 5) but a LET task later
/// in the chain switches it to the per-hop mixed branch, so until the
/// class is decided both B currencies are carried: nbb is the negated
/// bcet-currency partial, nbm the negated mixed-currency partial (W is
/// currency-independent).  fb/fm are the per-currency invariant
/// witnesses max(B − W).
struct ClassIAgg {
  Best2 w;
  Best2 nbb;  ///< max over −(Σ bcet + Σ fifo_lower)
  Best2 nbm;  ///< max over −(Σ per-hop b-terms + Σ fifo_lower)
  Duration fb = Duration::zero();  ///< max over (bcet-currency B) − W
  Duration fm = Duration::zero();  ///< max over (mixed-currency B) − W
  std::uint8_t both_b = 0;  ///< joint achievers of (w.v1, nbb.v1), sat 2
  std::uint8_t both_m = 0;  ///< joint achievers of (w.v1, nbm.v1), sat 2
  std::uint8_t cnt = 0;

  bool empty() const { return cnt == 0; }
  void merge(const ClassIAgg& o) {
    if (o.empty()) return;
    if (empty()) {
      *this = o;
      return;
    }
    const Duration w1 = std::max(w.v1, o.w.v1);
    const Duration bb1 = std::max(nbb.v1, o.nbb.v1);
    const Duration bm1 = std::max(nbm.v1, o.nbm.v1);
    unsigned joint_b = 0;
    unsigned joint_m = 0;
    if (w.v1 == w1 && nbb.v1 == bb1) joint_b += both_b;
    if (o.w.v1 == w1 && o.nbb.v1 == bb1) joint_b += o.both_b;
    if (w.v1 == w1 && nbm.v1 == bm1) joint_m += both_m;
    if (o.w.v1 == w1 && o.nbm.v1 == bm1) joint_m += o.both_m;
    w.merge(o.w);
    nbb.merge(o.nbb);
    nbm.merge(o.nbm);
    fb = std::max(fb, o.fb);
    fm = std::max(fm, o.fm);
    both_b = sat2(joint_b);
    both_m = sat2(joint_m);
    cnt = sat3(static_cast<unsigned>(cnt) + o.cnt);
  }
};

/// DP state of one (task, key) slot — key is the chain's source in
/// per-source mode, 0 in global mode.
struct NodeState {
  ClassIAgg ci;
  ClassAgg cl;
};

/// Per-edge extension constants — independent of the source, so they are
/// computed once per cone edge, not once per (edge, source).
struct EdgeTerms {
  Duration dw;    ///< θ(p,v) + fifo_upper(p,v): shift of W
  Duration dnbb;  ///< −(bcet(v) + fifo_lower(p,v)): shift of nbb
  Duration dnbm;  ///< −(b-term(p,v) + fifo_lower(p,v)): shift of nbm
};

EdgeTerms edge_terms(const TaskGraph& g, TaskId p, TaskId v,
                     const ResponseTimeMap& rtm, HopBoundMethod method) {
  const Task& u = g.task(p);
  const Task& w = g.task(v);
  Duration fifo_up = Duration::zero();
  Duration fifo_lo = Duration::zero();
  const int n = g.channel(p, v).buffer_size;
  if (n > 1) {
    fifo_up = u.period * (n - 1) + u.jitter;
    fifo_lo = u.period * (n - 1) - u.jitter;
  }
  // Mirror of bcbt_bound's mixed-branch per-hop term.
  Duration b;
  if (g.is_source(p)) {
    b = Duration::zero();
  } else if (u.comm == CommSemantics::kLet) {
    b = u.period;
  } else {
    b = u.bcet;
  }
  if (w.comm != CommSemantics::kLet) {
    b -= rtm[v] - w.bcet;  // read delay of the consumer
  }
  return EdgeTerms{hop_bound(g, p, v, rtm, method) + fifo_up,
                   -(w.bcet + fifo_lo), -(b + fifo_lo)};
}

/// Ancestor cone of the sink plus the path-count structure on it.
struct ConeInfo {
  std::vector<TaskId> topo;  ///< cone tasks in topological order
  std::vector<bool> in_cone;
  std::size_t num_sources = 0;
  std::size_t chain_count = 0;
  bool count_saturated = false;
  /// No non-sink cone task lies on two distinct source chains
  /// (up[u]·down[u] == 1 everywhere): every chain pair is structure-free.
  bool joint_free = true;
};

ConeInfo build_cone(const TaskGraph& g, TaskId sink,
                    const ResponseTimeMap& rtm) {
  const std::size_t n = g.num_tasks();
  ConeInfo c;
  c.in_cone.assign(n, false);
  // Reverse reachability from the sink.
  std::vector<TaskId> stack{sink};
  c.in_cone[sink] = true;
  while (!stack.empty()) {
    const TaskId u = stack.back();
    stack.pop_back();
    for (TaskId p : g.predecessors(u)) {
      if (!c.in_cone[p]) {
        c.in_cone[p] = true;
        stack.push_back(p);
      }
    }
  }
  for (TaskId id : g.topological_order()) {
    if (c.in_cone[id]) c.topo.push_back(id);
  }
  // Saturating source→u path counts (up) and u→sink counts (down); any
  // saturated intermediate poisons dependents, mirroring
  // count_source_chains_checked.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> up(n, 0);
  std::vector<std::size_t> down(n, 0);
  std::vector<bool> up_sat(n, false);
  std::vector<bool> down_sat(n, false);
  for (TaskId u : c.topo) {
    CETA_EXPECTS(rtm[u] != Duration::max(),
                 "dag_dp: task '" + g.task(u).name +
                     "' has no finite WCRT (unschedulable?)");
    if (g.is_source(u)) {
      up[u] = 1;
      ++c.num_sources;
      continue;
    }
    std::size_t total = 0;
    bool sat = false;
    for (TaskId p : g.predecessors(u)) {
      if (up_sat[p]) sat = true;
      if (up[p] > kMax - total) {
        total = kMax;
        sat = true;
        break;
      }
      total += up[p];
    }
    up[u] = sat ? kMax : total;
    up_sat[u] = sat;
  }
  c.chain_count = up[sink];
  c.count_saturated = up_sat[sink];
  for (auto it = c.topo.rbegin(); it != c.topo.rend(); ++it) {
    const TaskId u = *it;
    if (u == sink) {
      down[u] = 1;
      continue;
    }
    std::size_t total = 0;
    bool sat = false;
    for (TaskId s : g.successors(u)) {
      if (!c.in_cone[s]) continue;
      if (down_sat[s]) sat = true;
      if (down[s] > kMax - total) {
        total = kMax;
        sat = true;
        break;
      }
      total += down[s];
    }
    down[u] = sat ? kMax : total;
    down_sat[u] = sat;
  }
  for (TaskId u : c.topo) {
    if (u == sink) continue;
    if (up[u] != 1 || up_sat[u] || down[u] != 1 || down_sat[u]) {
      c.joint_free = false;
      break;
    }
  }
  return c;
}

/// Finalized per-key aggregates at the sink (key = source id in
/// per-source mode, 0 in global mode), sorted by key.
struct DpOutcome {
  bool within_budget = true;
  std::vector<std::pair<TaskId, ClassAgg>> final_aggs;
};

DpOutcome run_dp(const TaskGraph& g, TaskId sink, const ResponseTimeMap& rtm,
                 HopBoundMethod method, const ConeInfo& cone, bool per_source,
                 std::size_t state_budget) {
  const std::size_t n = g.num_tasks();
  DpOutcome out;
  std::vector<std::vector<std::pair<TaskId, NodeState>>> state(n);
  // Cone successors not yet consumed — a predecessor's state is freed the
  // moment its last cone successor has pulled from it, keeping the live
  // frontier (not the whole cone) resident.
  std::vector<std::size_t> succ_left(n, 0);
  for (TaskId u : cone.topo) {
    for (TaskId s : g.successors(u)) {
      if (cone.in_cone[s]) ++succ_left[u];
    }
  }
  std::size_t live = 0;
  std::unordered_map<TaskId, NodeState> acc;
  for (TaskId v : cone.topo) {
    acc.clear();
    if (g.is_source(v)) {
      // The singleton chain {v}: zero hops, W = 0, both B partials hold
      // only the head's contribution (bcet for the Lemma 5 currency,
      // nothing for the per-hop currency).
      NodeState& s0 = acc[per_source ? v : 0];
      s0.ci.cnt = 1;
      s0.ci.w.init(Duration::zero(), v);
      s0.ci.nbb.init(-g.task(v).bcet, v);
      s0.ci.nbm.init(Duration::zero(), v);
      s0.ci.fb = g.task(v).bcet;
      s0.ci.fm = Duration::zero();
      s0.ci.both_b = 1;
      s0.ci.both_m = 1;
    }
    // v is never a source below (it has predecessors), so v LET means the
    // class-I → class-L transition fires on this extension.
    const bool v_let = g.task(v).comm == CommSemantics::kLet;
    for (TaskId p : g.predecessors(v)) {
      const EdgeTerms e = edge_terms(g, p, v, rtm, method);
      for (const auto& [src, ns] : state[p]) {
        NodeState& slot = acc[per_source ? src : 0];
        if (!ns.ci.empty()) {
          ClassIAgg t = ns.ci;
          t.w.shift(e.dw);
          t.nbb.shift(e.dnbb);
          t.nbm.shift(e.dnbm);
          t.fb += -e.dnbb - e.dw;  // δB − δW in the bcet currency
          t.fm += -e.dnbm - e.dw;
          if (v_let) {
            ClassAgg l;
            l.w = t.w;
            l.nb = t.nbm;
            l.fbw = t.fm;
            l.both = t.both_m;
            l.cnt = t.cnt;
            slot.cl.merge(l);
          } else {
            slot.ci.merge(t);
          }
        }
        if (!ns.cl.empty()) {
          ClassAgg t = ns.cl;
          t.w.shift(e.dw);
          t.nb.shift(e.dnbm);
          t.fbw += -e.dnbm - e.dw;
          slot.cl.merge(t);
        }
      }
      if (--succ_left[p] == 0) {
        live -= state[p].size();
        state[p].clear();
        state[p].shrink_to_fit();
      }
    }
    auto& sv = state[v];
    sv.assign(acc.begin(), acc.end());
    std::sort(sv.begin(), sv.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    live += sv.size();
    if (live > state_budget) {
      out.within_budget = false;
      return out;
    }
  }
  // Finalize at the sink: the class-I B becomes Σ bcet − R(sink) + Σ
  // fifo_lower (shift −B by +R(sink)), the class-L partial already is the
  // final B; then the two classes merge per key.
  out.final_aggs.reserve(state[sink].size());
  for (const auto& [key, ns] : state[sink]) {
    ClassAgg f;
    if (!ns.ci.empty()) {
      ClassAgg ci_final;
      ci_final.w = ns.ci.w;
      ci_final.nb = ns.ci.nbb;
      ci_final.nb.shift(rtm[sink]);
      ci_final.fbw = ns.ci.fb - rtm[sink];
      ci_final.both = ns.ci.both_b;
      ci_final.cnt = ns.ci.cnt;
      f.merge(ci_final);
    }
    f.merge(ns.cl);
    // Theorem 1's sampling windows require bcbt <= wcbt per chain (the
    // precondition sampling_window states); under it |W(a)−B(b)| never
    // exceeds the swapped-ordering difference, which is what lets the DP
    // track maxima only.  The max(B − W) witness rode along for free.
    CETA_EXPECTS(f.fbw <= Duration::zero(),
                 "dag_dp: backward-bounds invariant bcbt <= wcbt violated "
                 "on a chain of the analyzed task; Theorem 1's sampling "
                 "windows (and this DP) are undefined on such instances");
    out.final_aggs.emplace_back(key, f);
  }
  return out;
}

/// max over *ordered distinct* chain pairs (a, b) of one aggregate's
/// W(a) − B(b).  The corner: when a single chain uniquely achieves both
/// maxima, one side must settle for its second-best.
Duration distinct_pair_max(const ClassAgg& a) {
  CETA_ASSERT(a.cnt >= 2, "dag_dp: pair max over a single chain");
  if (a.w.c1 >= 2 || a.nb.c1 >= 2 || a.both == 0) {
    return a.w.v1 + a.nb.v1;
  }
  CETA_ASSERT(a.w.has2 && a.nb.has2, "dag_dp: corner without second-best");
  return std::max(a.w.v1 + a.nb.v2, a.w.v2 + a.nb.v1);
}

/// Same-source pair bound of one source's aggregate: the distinct-pair
/// max, floored to the source period when the source is jitter-free
/// (Theorem 1's same-source refinement; flooring is monotone, so flooring
/// the max equals the max of the floored pair bounds).
Duration same_source_bound(const TaskGraph& g, TaskId s, const ClassAgg& a) {
  Duration m = distinct_pair_max(a);
  if (g.task(s).jitter == Duration::zero()) {
    m = floor_to_multiple(m, g.task(s).period);
  }
  return m;
}

/// Cross-source pair bound for two specific sources: chains from distinct
/// sources have distinct heads, so no flooring and no distinctness corner.
Duration cross_source_bound(const ClassAgg& a, const ClassAgg& b) {
  return std::max(a.w.v1 + b.nb.v1, b.w.v1 + a.nb.v1);
}

/// Streaming source-pair ranking shared with apply_keep_pairs' contract:
/// bound descending, ties by (source_a, source_b) ascending.
bool source_pair_better(const SourcePairDisparity& p,
                        const SourcePairDisparity& q) {
  if (p.bound != q.bound) return q.bound < p.bound;
  if (p.source_a != q.source_a) return p.source_a < q.source_a;
  return p.source_b < q.source_b;
}

/// Apply KeepPairs to the scanned source-pair candidates.
void keep_source_pairs(std::vector<SourcePairDisparity>& pairs,
                       const DisparityOptions& opt) {
  std::sort(pairs.begin(), pairs.end(), source_pair_better);
  std::size_t keep = pairs.size();
  if (opt.keep_pairs == KeepPairs::kWorstOnly) {
    keep = std::min<std::size_t>(keep, 1);
  } else if (opt.keep_pairs == KeepPairs::kTopK) {
    keep = std::min(keep, opt.top_k);
  }
  pairs.resize(keep);
  pairs.shrink_to_fit();
}

}  // namespace

DisparityReport analyze_time_disparity_dag_dp(const TaskGraph& g, TaskId task,
                                              const ResponseTimeMap& rtm,
                                              const DisparityOptions& opt,
                                              const DagDpOptions& dp) {
  CETA_EXPECTS(task < g.num_tasks(),
               "analyze_time_disparity_dag_dp: bad task id");
  CETA_EXPECTS(rtm.size() == g.num_tasks(),
               "analyze_time_disparity_dag_dp: response-time map size "
               "mismatch");
  opt.validate();
  obs::Span span("disparity", "dag_dp");
  span.arg("task", static_cast<std::int64_t>(task));
  static obs::Counter& runs =
      obs::MetricsRegistry::global().counter("disparity.dagdp.analyses");
  static obs::Counter& global_runs =
      obs::MetricsRegistry::global().counter("disparity.dagdp.global_mode");
  runs.add();

  const ConeInfo cone = build_cone(g, task, rtm);
  span.arg("cone_tasks", static_cast<std::int64_t>(cone.topo.size()));
  span.arg("sources", static_cast<std::int64_t>(cone.num_sources));

  DisparityReport r;
  r.worst_case = Duration::zero();
  r.backend = DisparityBackend::kDagDp;
  r.truncated = true;
  r.chain_count = cone.chain_count;
  r.chain_count_saturated = cone.count_saturated;
  r.exact = true;
  if (!cone.count_saturated && cone.chain_count < 2) {
    return r;  // zero or one chain: no pair, zero disparity, exact
  }

  // Exactness of the pdiff-on-full-chains semantics the DP computes
  // (DESIGN.md §10): structure-free everywhere, or the caller asked for
  // exactly that semantics.
  const bool exact_semantics =
      cone.joint_free || (opt.method == DisparityMethod::kIndependent &&
                          !disparity_uses_truncation(opt));

  DpOutcome res = run_dp(g, task, rtm, opt.hop_method, cone,
                         /*per_source=*/true, dp.state_budget);
  bool global_mode = false;
  if (!res.within_budget) {
    global_runs.add();
    global_mode = true;
    res = run_dp(g, task, rtm, opt.hop_method, cone, /*per_source=*/false,
                 std::numeric_limits<std::size_t>::max());
  }
  r.exact = exact_semantics && !global_mode;
  span.arg("mode", global_mode ? "global" : "per_source");

  const auto& aggs = res.final_aggs;
  CETA_ASSERT(!aggs.empty(), "dag_dp: no aggregates for a task with chains");

  Duration worst = Duration::zero();
  TaskId worst_a = 0;
  TaskId worst_b = 0;
  if (global_mode) {
    // One source-agnostic aggregate; flooring is unavailable (the maximum
    // does not decompose per source), so the bound is relaxed.
    const ClassAgg& a = aggs.front().second;
    const Duration m = distinct_pair_max(a);
    if (m > worst) {
      worst = m;
      // Witness sources travel in the Best2 tags; resolve the corner the
      // same way distinct_pair_max did.
      if (a.w.c1 >= 2 || a.nb.c1 >= 2 || a.both == 0) {
        worst_a = a.w.s1;
        worst_b = a.nb.s1;
      } else if (a.w.v1 + a.nb.v2 >= a.w.v2 + a.nb.v1) {
        worst_a = a.w.s1;
        worst_b = a.nb.s2;
      } else {
        worst_a = a.w.s2;
        worst_b = a.nb.s1;
      }
    }
  } else {
    // Per-source combination: floored same-source terms plus the
    // cross-source term from source-level top-2 aggregation (chains from
    // different sources are automatically distinct).
    Best2 sw;  // per-source max W over sources
    Best2 sb;  // per-source max −B over sources
    for (const auto& [s, a] : aggs) {
      if (a.cnt >= 2) {
        const Duration m = same_source_bound(g, s, a);
        if (m > worst) {
          worst = m;
          worst_a = s;
          worst_b = s;
        }
      }
      sw.offer(a.w.v1, s, 1, 0);
      sb.offer(a.nb.v1, s, 1, 0);
    }
    if (aggs.size() >= 2) {
      Duration cross;
      TaskId ca;
      TaskId cb;
      if (sw.c1 >= 2 || sb.c1 >= 2 || sw.s1 != sb.s1) {
        cross = sw.v1 + sb.v1;
        ca = sw.s1;
        cb = sb.s1;
        if (ca == cb) {
          // One source tops both sides but ties with another source on at
          // least one of them; swap in that tying source's witness.
          if (sw.c1 >= 2) {
            ca = sw.t1;
          } else {
            cb = sb.t1;
          }
        }
      } else {
        // A single source uniquely tops both sides: one side settles for
        // its runner-up source.
        CETA_ASSERT(sw.has2 && sb.has2,
                    "dag_dp: cross corner without second-best");
        if (sw.v1 + sb.v2 >= sw.v2 + sb.v1) {
          cross = sw.v1 + sb.v2;
          ca = sw.s1;
          cb = sb.s2;
        } else {
          cross = sw.v2 + sb.v1;
          ca = sw.s2;
          cb = sb.s1;
        }
      }
      if (cross > worst) {
        worst = cross;
        worst_a = ca;
        worst_b = cb;
      }
    }
  }
  r.worst_case = worst;

  // Source-granularity worst pairs.  When the source count permits, scan
  // all S(S+1)/2 source pairs (O(1) per pair from the aggregates) through
  // the KeepPairs contract; beyond the cap (or in global mode) only the
  // overall worst witness is reported.
  if (!global_mode && aggs.size() <= dp.source_pair_scan_cap) {
    std::vector<SourcePairDisparity>& pairs = r.source_pairs;
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      const auto& [si, ai] = aggs[i];
      if (ai.cnt >= 2) {
        pairs.push_back(
            SourcePairDisparity{si, si, same_source_bound(g, si, ai)});
      }
      for (std::size_t j = i + 1; j < aggs.size(); ++j) {
        const auto& [sj, aj] = aggs[j];
        pairs.push_back(
            SourcePairDisparity{si, sj, cross_source_bound(ai, aj)});
      }
    }
    keep_source_pairs(pairs, opt);
    CETA_ASSERT(pairs.empty() || pairs.front().bound == worst,
                "dag_dp: source-pair scan disagrees with the aggregate "
                "combination");
  } else {
    const TaskId a = std::min(worst_a, worst_b);
    const TaskId b = std::max(worst_a, worst_b);
    r.source_pairs.push_back(SourcePairDisparity{a, b, worst});
  }

  // Test-only fault injection (DagDpOptions::fault_drop_source_period):
  // drop one witness-source period from the final bound so the
  // dag_dp_matches_enumeration verify property must flag the divergence.
  if (dp.fault_drop_source_period && r.worst_case > Duration::zero()) {
    const Duration t = g.task(worst_a).period;
    r.worst_case = std::max(Duration::zero(), r.worst_case - t);
  }
  return r;
}

DisparityReport route_disparity_backend(
    const TaskGraph& g, TaskId task, const ResponseTimeMap& rtm,
    const DisparityOptions& opt, const DagDpOptions& dp,
    const std::function<DisparityReport()>& enumerate) {
  static obs::Counter& fallbacks =
      obs::MetricsRegistry::global().counter("disparity.dagdp.fallbacks");
  if (opt.backend == DisparityBackend::kEnumerate) return enumerate();
  if (opt.backend == DisparityBackend::kAuto) {
    if (!count_source_chains_checked(g, task).exceeds(opt.path_cap)) {
      return enumerate();
    }
    return analyze_time_disparity_dag_dp(g, task, rtm, opt, dp);
  }
  // kDagDp: run the DP; when its bound would be relaxed and the instance
  // is enumerable, the exact kernel serves instead (the report's backend
  // field records that).
  DisparityReport r = analyze_time_disparity_dag_dp(g, task, rtm, opt, dp);
  if (!r.exact &&
      !ChainCount{r.chain_count, r.chain_count_saturated}.exceeds(
          opt.path_cap)) {
    fallbacks.add();
    return enumerate();
  }
  return r;
}

DisparityReport analyze_time_disparity_backend(const TaskGraph& g, TaskId task,
                                               const ResponseTimeMap& rtm,
                                               const DisparityOptions& opt,
                                               const DagDpOptions& dp) {
  opt.validate();
  return route_disparity_backend(g, task, rtm, opt, dp, [&] {
    return analyze_time_disparity_kernel(g, task, rtm, opt);
  });
}

}  // namespace ceta
