#include "explore/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "disparity/exact.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/thread_pool.hpp"
#include "explore/stream.hpp"
#include "graph/algorithms.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/ecu_index.hpp"

namespace ceta::explore {

namespace {

/// Perturbation draws use step coordinates above this base so they never
/// collide with search steps (moves_per_restart < 2^39, validated).
constexpr std::uint64_t kPerturbStepBase = 1ull << 39;

/// Immutable per-campaign move targets, built once from the base graph
/// (moves are non-structural, so edge order and cohorts never change).
struct MoveContext {
  /// Indices into base.edges() of channels in the sink's ancestor cone —
  /// the only edges whose depth can move the sink's bounds.
  std::vector<std::size_t> cone_edges;
  /// Same-ECU groups of non-source tasks with >= 2 members (the swappable
  /// cohorts).
  std::vector<std::vector<TaskId>> cohorts;
  std::vector<TaskId> sources;
};

MoveContext build_context(const TaskGraph& g, TaskId sink) {
  MoveContext ctx;
  std::vector<char> in_cone(g.num_tasks(), 0);
  for (const TaskId t : ancestors(g, sink)) in_cone[t] = 1;
  in_cone[sink] = 1;
  const std::vector<Edge>& edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (in_cone[edges[i].to]) ctx.cone_edges.push_back(i);
  }
  const EcuIndex index(g);
  for (const EcuId ecu : index.ecus()) {
    const std::span<const TaskId> members = index.members(ecu);
    if (members.size() >= 2) {
      ctx.cohorts.emplace_back(members.begin(), members.end());
    }
  }
  ctx.sources = g.sources();
  return ctx;
}

/// One candidate move with everything needed to apply, mirror and invert
/// it.
struct Move {
  enum class Kind { kBuffer, kSwap, kOffset };
  Kind kind = Kind::kBuffer;
  // kBuffer
  std::size_t edge_index = 0;
  TaskId from = 0, to = 0;
  int new_buf = 1, old_buf = 1;
  // kSwap: a takes pb, b takes pa
  TaskId a = 0, b = 0;
  int pa = 0, pb = 0;
  // kOffset
  TaskId task = 0;
  Duration new_off = Duration::zero(), old_off = Duration::zero();
};

/// Draw the move of (restart-stream, step) against the mirror `cur`.
/// Returns nullopt for proposals that are no-ops or out of range (counted
/// as invalid, the engine is never touched).
std::optional<Move> propose(const ExploreStream& st, std::uint64_t step,
                            const TaskGraph& g, const MoveContext& ctx,
                            const ConfigState& cur,
                            const ExploreOptions& opt) {
  switch (st.below(step, ExploreStream::kMoveKind, 3)) {
    case 0: {  // FIFO resize inside the sink's cone
      if (ctx.cone_edges.empty()) return std::nullopt;
      const std::size_t ei = ctx.cone_edges[st.below(
          step, ExploreStream::kTarget, ctx.cone_edges.size())];
      const int delta = (st.bits(step, ExploreStream::kParam) & 1) ? 1 : -1;
      const int nb = cur.buffers[ei] + delta;
      if (nb < 1 || nb > opt.max_buffer) return std::nullopt;
      Move m;
      m.kind = Move::Kind::kBuffer;
      m.edge_index = ei;
      m.from = g.edges()[ei].from;
      m.to = g.edges()[ei].to;
      m.new_buf = nb;
      m.old_buf = cur.buffers[ei];
      return m;
    }
    case 1: {  // same-ECU priority swap
      if (ctx.cohorts.empty()) return std::nullopt;
      const std::vector<TaskId>& coh = ctx.cohorts[st.below(
          step, ExploreStream::kTarget, ctx.cohorts.size())];
      const std::size_t n = coh.size();
      const std::size_t i = st.below(step, ExploreStream::kParam, n);
      std::size_t j = st.below(step, ExploreStream::kParam2, n - 1);
      if (j >= i) ++j;
      Move m;
      m.kind = Move::Kind::kSwap;
      m.a = coh[i];
      m.b = coh[j];
      m.pa = cur.priorities[m.a];
      m.pb = cur.priorities[m.b];
      return m;
    }
    default: {  // source offset shift on the period / offset_grid lattice
      if (ctx.sources.empty()) return std::nullopt;
      const TaskId s = ctx.sources[st.below(step, ExploreStream::kTarget,
                                            ctx.sources.size())];
      const Duration period = g.task(s).period;
      const std::int64_t grid = static_cast<std::int64_t>(opt.offset_grid);
      const std::int64_t slot = static_cast<std::int64_t>(
          st.below(step, ExploreStream::kParam, opt.offset_grid));
      const Duration off = Duration::ns(period.count() / grid * slot);
      if (off == cur.offsets[s]) return std::nullopt;
      Move m;
      m.kind = Move::Kind::kOffset;
      m.task = s;
      m.new_off = off;
      m.old_off = cur.offsets[s];
      return m;
    }
  }
}

/// Commit `m` (forward) or its inverse (!forward) as one Transaction —
/// the O(invalidated) move evaluation / strong-guarantee rollback path.
void apply_move(AnalysisEngine& e, const Move& m, bool forward) {
  AnalysisEngine::Transaction txn(e);
  switch (m.kind) {
    case Move::Kind::kBuffer:
      txn.set_buffer(m.from, m.to, forward ? m.new_buf : m.old_buf);
      break;
    case Move::Kind::kSwap:
      txn.set_priority(m.a, forward ? m.pb : m.pa)
          .set_priority(m.b, forward ? m.pa : m.pb);
      break;
    case Move::Kind::kOffset:
      txn.set_offset(m.task, forward ? m.new_off : m.old_off);
      break;
  }
  txn.commit();
}

/// Track `m` in the explorer's cheap configuration mirror.
void mirror_move(ConfigState& cur, const Move& m, bool forward) {
  switch (m.kind) {
    case Move::Kind::kBuffer:
      cur.buffers[m.edge_index] = forward ? m.new_buf : m.old_buf;
      break;
    case Move::Kind::kSwap:
      cur.priorities[m.a] = forward ? m.pb : m.pa;
      cur.priorities[m.b] = forward ? m.pa : m.pb;
      break;
    case Move::Kind::kOffset:
      cur.offsets[m.task] = forward ? m.new_off : m.old_off;
      break;
  }
}

double scalar_cost(const Objectives& o, double w_age, double w_mem,
                   double mem_unit) {
  return static_cast<double>(o.disparity.count()) +
         w_age * static_cast<double>(o.data_age.count()) +
         w_mem * mem_unit * static_cast<double>(o.memory);
}

struct RestartOutcome {
  std::vector<ArchiveEntry> entries;
  ExploreStats stats;
};

RestartOutcome run_restart(const AnalysisEngine& base, const TaskGraph& bg,
                           const MoveContext& ctx, TaskId sink,
                           const ExploreOptions& opt, std::uint64_t r) {
  obs::Span span("explore", "restart");
  span.arg("restart", static_cast<std::int64_t>(r));
  RestartOutcome out;
  const std::unique_ptr<AnalysisEngine> eng = base.clone();
  AnalysisEngine& e = *eng;
  const ExploreStream st(opt.seed, r);
  ConfigState cur = ConfigState::of(bg);
  ParetoArchive local;

  const bool greedy =
      opt.strategy == Strategy::kHillClimb ||
      (opt.strategy == Strategy::kPortfolio && (r % 2 == 0));

  // Random-restart kick: restarts > 0 start from a perturbed copy of the
  // base configuration (forced-accept moves on the perturbation stream).
  if (r > 0) {
    for (std::size_t p = 0; p < opt.perturb_moves; ++p) {
      const std::optional<Move> mv =
          propose(st, kPerturbStepBase + p, bg, ctx, cur, opt);
      if (!mv) continue;
      apply_move(e, *mv, true);
      if (mv->kind == Move::Kind::kSwap && !e.schedulable()) {
        apply_move(e, *mv, false);
        continue;
      }
      mirror_move(cur, *mv, true);
    }
  }

  Objectives current = evaluate_objectives(e, sink, opt);
  ++out.stats.evaluations;
  local.insert({current, delta_between(bg, cur), entry_key(r, 0), 0});

  // Per-restart scalarization weights: restarts chase different corners
  // of the front, the archive keeps everything non-dominated.
  const double w_age = st.unit(0, ExploreStream::kWeightAge);
  const double w_mem = st.unit(0, ExploreStream::kWeightMemory);
  const double mem_unit = std::max(
      1.0, static_cast<double>(current.disparity.count()) /
               static_cast<double>(std::max<std::int64_t>(1, current.memory)));
  double cost = scalar_cost(current, w_age, w_mem, mem_unit);
  double temperature = opt.anneal_t0 * std::max(1.0, std::abs(cost));
  bool fault_armed = opt.fault_skip_rollback && r == 0;

  for (std::uint64_t step = 1; step <= opt.moves_per_restart; ++step) {
    ++out.stats.proposed;
    temperature *= opt.anneal_decay;
    const std::optional<Move> mv = propose(st, step, bg, ctx, cur, opt);
    if (!mv) {
      ++out.stats.invalid;
      continue;
    }
    apply_move(e, *mv, true);
    if (mv->kind == Move::Kind::kSwap && !e.schedulable()) {
      // The swap lost the RTA — no objective vector exists; undo and
      // continue (the scoped refresh makes this a cohort-sized detour).
      apply_move(e, *mv, false);
      ++out.stats.unschedulable;
      ++out.stats.rolled_back;
      continue;
    }
    mirror_move(cur, *mv, true);
    const Objectives cand = evaluate_objectives(e, sink, opt);
    ++out.stats.evaluations;
    const std::uint64_t key = entry_key(r, step);
    if (local.would_accept(cand, key)) {
      local.insert({cand, delta_between(bg, cur), key, 0});
    }
    const double cand_cost = scalar_cost(cand, w_age, w_mem, mem_unit);
    bool accept = cand_cost < cost;
    if (!accept && !greedy && temperature > 0.0) {
      accept = st.unit(step, ExploreStream::kAccept) <
               std::exp(-(cand_cost - cost) / temperature);
    }
    if (accept) {
      cost = cand_cost;
      current = cand;
      ++out.stats.accepted;
    } else {
      mirror_move(cur, *mv, false);
      if (fault_armed && mv->kind == Move::Kind::kBuffer) {
        // TEST ONLY (fault_skip_rollback): leak the rejected move into the
        // engine while the mirror forgets it — every later delta lies.
        fault_armed = false;
      } else {
        apply_move(e, *mv, false);
        ++out.stats.rolled_back;
      }
    }
  }

  const auto snap = local.snapshot();
  out.entries.assign(snap->begin(), snap->end());
  out.stats.archive_inserts = local.inserts();
  out.stats.archive_evictions = local.evictions();
  out.stats.archive_rejects = local.rejects();
  return out;
}

}  // namespace

void ExploreOptions::validate() const {
  CETA_EXPECTS(moves_per_restart >= 1 && moves_per_restart < (1ull << 39),
               "ExploreOptions: moves_per_restart out of range");
  CETA_EXPECTS(restarts >= 1 && restarts <= (1ull << 24),
               "ExploreOptions: restarts out of range");
  CETA_EXPECTS(max_buffer >= 1, "ExploreOptions: max_buffer must be >= 1");
  CETA_EXPECTS(offset_grid >= 1, "ExploreOptions: offset_grid must be >= 1");
  CETA_EXPECTS(perturb_moves < (1ull << 38),
               "ExploreOptions: perturb_moves out of range");
  CETA_EXPECTS(anneal_t0 > 0.0 && anneal_decay > 0.0 && anneal_decay <= 1.0,
               "ExploreOptions: annealing schedule out of range");
  CETA_EXPECTS(path_cap >= 1, "ExploreOptions: path_cap must be >= 1");
}

Objectives evaluate_objectives(const AnalysisEngine& engine, TaskId sink,
                               const ExploreOptions& opt) {
  Objectives o;
  if (opt.objective == ObjectiveMode::kAnalyzer) {
    DisparityOptions dopt;
    dopt.method = DisparityMethod::kForkJoin;
    dopt.path_cap = opt.path_cap;
    dopt.keep_pairs = KeepPairs::kWorstOnly;
    o.disparity = engine.disparity(sink, dopt).worst_case;
  } else {
    o.disparity =
        exact_let_disparity(engine.graph(), sink, opt.path_cap,
                            opt.max_releases)
            .worst_disparity;
  }
  Duration age = Duration::zero();
  for (const Path& c : engine.chains(sink, opt.path_cap)) {
    age = std::max(age, engine.latency(c).max_data_age);
  }
  o.data_age = age;
  std::int64_t memory = 0;
  for (const Edge& e : engine.graph().edges()) memory += e.channel.buffer_size;
  o.memory = memory;
  return o;
}

Objectives replay_objectives(const TaskGraph& base, const ArchiveEntry& entry,
                             TaskId sink, const ExploreOptions& opt) {
  AnalysisEngine fresh(base);
  apply_delta(fresh, entry.delta);
  return evaluate_objectives(fresh, sink, opt);
}

ExploreResult explore(const AnalysisEngine& base, TaskId sink,
                      const ExploreOptions& opt) {
  obs::Span span("explore", "run");
  span.arg("sink", static_cast<std::int64_t>(sink));
  span.arg("restarts", static_cast<std::int64_t>(opt.restarts));
  opt.validate();
  CETA_EXPECTS(sink < base.graph().num_tasks(), "explore: sink out of range");
  (void)base.rta();  // rejects external-rtm engines (cannot swap priorities)
  CETA_EXPECTS(base.schedulable(),
               "explore: base configuration is unschedulable");

  const TaskGraph bg = base.graph();
  const MoveContext ctx = build_context(bg, sink);

  std::vector<RestartOutcome> outcomes(opt.restarts);
  const std::size_t want =
      opt.num_threads ? opt.num_threads : ThreadPool::default_concurrency();
  const std::size_t threads = std::min(want, opt.restarts);
  if (threads <= 1 || ThreadPool::current_thread_in_pool()) {
    for (std::uint64_t r = 0; r < opt.restarts; ++r) {
      outcomes[r] = run_restart(base, bg, ctx, sink, opt, r);
    }
  } else {
    ThreadPool pool(threads);
    std::vector<std::future<RestartOutcome>> futs;
    futs.reserve(opt.restarts);
    for (std::uint64_t r = 0; r < opt.restarts; ++r) {
      futs.push_back(
          pool.submit([&, r] { return run_restart(base, bg, ctx, sink, opt, r); }));
    }
    for (std::size_t r = 0; r < opt.restarts; ++r) outcomes[r] = futs[r].get();
  }

  // Deterministic fold: merging in restart order (with the archive's
  // order-insensitive tie-breaks) makes the final front — entries, keys
  // and epochs — independent of how restarts were sharded over threads.
  ExploreResult result;
  ParetoArchive front;
  for (const RestartOutcome& o : outcomes) {
    for (const ArchiveEntry& e : o.entries) front.insert(e);
    result.stats.proposed += o.stats.proposed;
    result.stats.invalid += o.stats.invalid;
    result.stats.accepted += o.stats.accepted;
    result.stats.rolled_back += o.stats.rolled_back;
    result.stats.unschedulable += o.stats.unschedulable;
    result.stats.evaluations += o.stats.evaluations;
    result.stats.archive_inserts += o.stats.archive_inserts;
    result.stats.archive_evictions += o.stats.archive_evictions;
    result.stats.archive_rejects += o.stats.archive_rejects;
  }
  const auto snap = front.snapshot();
  result.archive.assign(snap->begin(), snap->end());
  result.start = evaluate_objectives(base, sink, opt);

  obs::MetricsRegistry& reg = base.metrics_registry();
  reg.counter("explore.moves.proposed").add(result.stats.proposed);
  reg.counter("explore.moves.invalid").add(result.stats.invalid);
  reg.counter("explore.moves.accepted").add(result.stats.accepted);
  reg.counter("explore.moves.rolled_back").add(result.stats.rolled_back);
  reg.counter("explore.moves.unschedulable").add(result.stats.unschedulable);
  reg.counter("explore.evaluations").add(result.stats.evaluations);
  reg.counter("explore.archive.inserts").add(result.stats.archive_inserts);
  reg.counter("explore.archive.evictions").add(result.stats.archive_evictions);
  reg.counter("explore.archive.rejects").add(result.stats.archive_rejects);
  reg.gauge("explore.front.size")
      .set(static_cast<std::int64_t>(result.archive.size()));
  return result;
}

}  // namespace ceta::explore
