#include "disparity/analyzer.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace ceta {

namespace {

/// Theorem 1 from precomputed backward bounds (avoids re-walking chains
/// for every pair; the analyzer visits O(|P|^2) pairs).
Duration pdiff_from_bounds(const TaskGraph& g, const Path& a, const Path& b,
                           const BackwardBounds& ba, const BackwardBounds& bb) {
  const Duration o = independent_window_separation(ba, bb);
  if (a.front() == b.front() &&
      g.task(a.front()).jitter == Duration::zero()) {
    return floor_to_multiple(o, g.task(a.front()).period);
  }
  return o;
}

/// True if a and b share only their common tail task and have distinct
/// heads — the structure-free case where Theorem 2 degenerates to
/// Theorem 1 and truncation is the identity.  One mark-vector pass,
/// O(|a|+|b|): stamp b's tasks, count how many of a's are stamped.  The
/// stamp buffer is versioned and thread_local, so the analyzer's hot
/// O(|P|²) pair loop neither allocates nor clears per pair, and stays safe
/// when concurrent readers of one shared session engine (cetad workers)
/// analyze at the same time.
bool structure_free(const Path& a, const Path& b) {
  if (a.front() == b.front()) return false;
  thread_local std::vector<std::uint32_t> stamp;
  thread_local std::uint32_t version = 0;
  TaskId max_id = 0;
  for (TaskId y : b) max_id = std::max(max_id, y);
  if (stamp.size() <= max_id) stamp.resize(max_id + 1, 0);
  if (++version == 0) {  // wrapped: old stamps could alias; reset
    std::fill(stamp.begin(), stamp.end(), 0);
    version = 1;
  }
  for (TaskId y : b) stamp[y] = version;
  std::size_t common = 0;
  for (TaskId x : a) {
    if (x < stamp.size() && stamp[x] == version) {
      if (++common > 1) return false;
    }
  }
  return common == 1;  // exactly the shared tail
}

}  // namespace

void DisparityOptions::validate() const {
  const auto bad = [](const std::string& what) {
    throw InvalidOptionsError("DisparityOptions: " + what);
  };
  switch (method) {
    case DisparityMethod::kIndependent:
    case DisparityMethod::kForkJoin:
      break;
    default:
      bad("unknown DisparityMethod");
  }
  switch (hop_method) {
    case HopBoundMethod::kNonPreemptive:
    case HopBoundMethod::kSchedulingAgnostic:
      break;
    default:
      bad("unknown HopBoundMethod");
  }
  switch (truncation) {
    case JointTruncation::kAuto:
    case JointTruncation::kAlways:
    case JointTruncation::kNever:
      break;
    default:
      bad("unknown JointTruncation");
  }
  switch (keep_pairs) {
    case KeepPairs::kAll:
    case KeepPairs::kWorstOnly:
    case KeepPairs::kTopK:
      break;
    default:
      bad("unknown KeepPairs");
  }
  switch (backend) {
    case DisparityBackend::kAuto:
    case DisparityBackend::kEnumerate:
    case DisparityBackend::kDagDp:
      break;
    default:
      bad("unknown DisparityBackend");
  }
  if (path_cap == 0) bad("path_cap must be >= 1");
  if (keep_pairs == KeepPairs::kTopK && top_k == 0) {
    bad("keep_pairs == kTopK requires top_k >= 1");
  }
  if (backend == DisparityBackend::kDagDp &&
      keep_pairs == KeepPairs::kAll) {
    bad(
        "backend == kDagDp cannot serve keep_pairs == kAll (the DP never "
        "materializes the pair set; use kTopK or kWorstOnly)");
  }
}

bool disparity_uses_truncation(const DisparityOptions& opt) {
  return opt.truncation == JointTruncation::kAlways ||
         (opt.truncation == JointTruncation::kAuto &&
          opt.method == DisparityMethod::kForkJoin);
}

void apply_keep_pairs(std::vector<PairDisparity>& pairs,
                      const DisparityOptions& opt) {
  if (opt.keep_pairs == KeepPairs::kAll || pairs.empty()) return;
  const auto better = [](const PairDisparity& p, const PairDisparity& q) {
    if (p.bound != q.bound) return q.bound < p.bound;
    if (p.chain_a != q.chain_a) return p.chain_a < q.chain_a;
    return p.chain_b < q.chain_b;
  };
  if (opt.keep_pairs == KeepPairs::kWorstOnly) {
    PairDisparity best = pairs.front();
    for (const PairDisparity& p : pairs) {
      if (better(p, best)) best = p;
    }
    pairs.assign(1, best);
    return;
  }
  const std::size_t k = std::min(opt.top_k, pairs.size());
  std::partial_sort(pairs.begin(),
                    pairs.begin() + static_cast<std::ptrdiff_t>(k),
                    pairs.end(), better);
  pairs.resize(k);
  pairs.shrink_to_fit();
}

Duration pair_disparity_bound_from(const TaskGraph& g, const Path& a,
                                   const Path& b,
                                   const BackwardBounds& full_a,
                                   const BackwardBounds& full_b,
                                   const ResponseTimeMap& rtm,
                                   const DisparityOptions& opt) {
  const bool truncate = disparity_uses_truncation(opt);
  if (opt.method == DisparityMethod::kIndependent && !truncate) {
    return pdiff_from_bounds(g, a, b, full_a, full_b);
  }
  if (structure_free(a, b)) {
    return pdiff_from_bounds(g, a, b, full_a, full_b);
  }

  const Path* la = &a;
  const Path* lb = &b;
  Path ta, tb;
  if (truncate) {
    std::tie(ta, tb) = truncate_at_last_joint(a, b);
    CETA_ASSERT(ta != tb,
                "pair_disparity_bound: distinct chains truncated to equal");
    la = &ta;
    lb = &tb;
  }
  if (opt.method == DisparityMethod::kIndependent) {
    return pdiff_pair_bound(g, *la, *lb, rtm, opt.hop_method);
  }
  // S-diff: Theorem 2, clamped by Theorem 1 (on the same truncated chains
  // and on the full chains).  All three are safe bounds; Theorem 2 alone
  // is not formally guaranteed to dominate pointwise — its sub-chain
  // decomposition re-counts response-time slack at every joint and can
  // exceed Theorem 1 by O(R) in rare instances — and the clamp keeps the
  // reported S-diff <= P-diff by construction.
  Duration best = sdiff_pair_bound(g, *la, *lb, rtm, opt.hop_method).bound;
  best = std::min(best, pdiff_pair_bound(g, *la, *lb, rtm, opt.hop_method));
  best = std::min(best, pdiff_from_bounds(g, a, b, full_a, full_b));
  return best;
}

std::pair<Path, Path> truncate_at_last_joint(const Path& a, const Path& b) {
  CETA_EXPECTS(!a.empty() && !b.empty(), "truncate_at_last_joint: empty");
  CETA_EXPECTS(a.back() == b.back(),
               "truncate_at_last_joint: chains must end at the same task");
  // Length of the maximal common suffix.
  std::size_t s = 0;
  while (s < a.size() && s < b.size() &&
         a[a.size() - 1 - s] == b[b.size() - 1 - s]) {
    ++s;
  }
  CETA_ASSERT(s >= 1, "truncate_at_last_joint: no common suffix");
  // Keep everything up to and including the first task of that suffix.
  Path ta(a.begin(), a.end() - static_cast<std::ptrdiff_t>(s - 1));
  Path tb(b.begin(), b.end() - static_cast<std::ptrdiff_t>(s - 1));
  return {std::move(ta), std::move(tb)};
}

Duration pair_disparity_bound(const TaskGraph& g, const Path& a,
                              const Path& b, const ResponseTimeMap& rtm,
                              const DisparityOptions& opt) {
  CETA_EXPECTS(a != b, "pair_disparity_bound: chains must differ");
  const BackwardBounds full_a = backward_bounds(g, a, rtm, opt.hop_method);
  const BackwardBounds full_b = backward_bounds(g, b, rtm, opt.hop_method);
  return pair_disparity_bound_from(g, a, b, full_a, full_b, rtm, opt);
}

DisparityReport analyze_time_disparity(const TaskGraph& g, TaskId task,
                                       const ResponseTimeMap& rtm,
                                       const DisparityOptions& opt) {
  CETA_EXPECTS(task < g.num_tasks(), "analyze_time_disparity: bad task id");
  opt.validate();
  obs::Span span("disparity", "analyze_time_disparity");
  span.arg("task", static_cast<std::int64_t>(task));
  static obs::Counter& runs =
      obs::MetricsRegistry::global().counter("disparity.analyses");
  static obs::Counter& pairs_counter =
      obs::MetricsRegistry::global().counter("disparity.pairs");
  runs.add();
  DisparityReport report;
  report.worst_case = Duration::zero();
  report.chains = enumerate_source_chains(g, task, opt.path_cap);
  report.chain_count = report.chains.size();

  const std::size_t n = report.chains.size();
  std::vector<BackwardBounds> full;
  full.reserve(n);
  for (const Path& c : report.chains) {
    full.push_back(backward_bounds(g, c, rtm, opt.hop_method));
  }

  report.pairs.reserve(n < 2 ? 0 : n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Duration bound =
          pair_disparity_bound_from(g, report.chains[i], report.chains[j],
                                    full[i], full[j], rtm, opt);
      report.pairs.push_back(PairDisparity{i, j, bound});
      report.worst_case = std::max(report.worst_case, bound);
    }
  }
  span.arg("chains", static_cast<std::int64_t>(n));
  pairs_counter.add(report.pairs.size());
  apply_keep_pairs(report.pairs, opt);
  return report;
}

}  // namespace ceta
