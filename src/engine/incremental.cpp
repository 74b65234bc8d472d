#include "engine/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>

#include "common/error.hpp"
#include "disparity/exact.hpp"
#include "disparity/forkjoin.hpp"
#include "graph/algorithms.hpp"
#include "obs/tracer.hpp"

namespace ceta {

namespace {

Duration scaled(Duration d, double factor) {
  return Duration::ns(static_cast<std::int64_t>(
      std::llround(static_cast<double>(d.count()) * factor)));
}

/// Run `body`, then `restore` — also when `body` throws, in which case the
/// body's own exception is rethrown after the restore (the caller must see
/// *what* failed).  A throwing restore surfaces as RollbackError naming
/// both errors.  `what` names the restore ("buffer_pareto: buffer revert").
template <typename Body, typename Restore>
void run_then_restore(const char* what, Body&& body, Restore&& restore) {
  try {
    body();
  } catch (...) {
    const std::exception_ptr original = std::current_exception();
    try {
      restore();
    } catch (...) {
      throw RollbackError(std::string(what) + " failed: " +
                          exception_message(std::current_exception()) +
                          " (original error: " +
                          exception_message(original) + ")");
    }
    std::rethrow_exception(original);
  }
  restore();
}

}  // namespace

AudsleyResult seed_priorities(AnalysisEngine& engine) {
  obs::Span span("engine", "seed_priorities");
  TaskGraph scratch = engine.graph();
  const AudsleyResult result =
      assign_priorities_audsley(scratch, engine.options().rta);
  if (!result.feasible) return result;
  AnalysisEngine::Transaction txn(engine);
  for (TaskId t = 0; t < scratch.num_tasks(); ++t) {
    if (scratch.is_source(t)) continue;
    const int assigned = scratch.task(t).priority;
    if (assigned != engine.graph().task(t).priority) {
      txn.set_priority(t, assigned);
    }
  }
  txn.commit();
  return result;
}

std::vector<ParetoPoint> buffer_pareto(AnalysisEngine& engine,
                                       const Path& lambda, const Path& nu,
                                       HopBoundMethod method) {
  obs::Span span("engine", "buffer_pareto");
  const BufferDesign design = engine.optimize_buffer_pair(lambda, nu, method);
  const Duration t_head = engine.graph().task(design.from).period;

  std::vector<ParetoPoint> points;
  points.reserve(static_cast<std::size_t>(design.buffer_size));
  const auto sweep = [&] {
    for (int n = 1; n <= design.buffer_size; ++n) {
      ParetoPoint p;
      p.buffer_size = n;
      p.shift = t_head * (n - 1);
      // Theorem 3 with a partial shift (still on the aligning side),
      // clamped by the Lemma 6-aware Theorem 2 re-analysis at this size.
      // A resize leaves the RTA valid, so each step reuses it.
      const Duration analytic = design.baseline_bound - p.shift;
      if (n == 1) {
        p.bound = design.baseline_bound;
      } else {
        engine.set_buffer(design.from, design.to, n);
        const Duration rerun =
            sdiff_pair_bound(engine.graph(), lambda, nu,
                             engine.response_times(), method)
                .bound;
        p.bound = std::min(analytic, rerun);
      }
      points.push_back(p);
    }
  };
  run_then_restore("buffer_pareto: buffer revert", sweep, [&] {
    if (design.buffer_size > 1) engine.set_buffer(design.from, design.to, 1);
  });
  CETA_ASSERT(!points.empty(), "buffer_pareto: no points");
  CETA_ASSERT(points.back().bound <= design.optimized_bound,
              "buffer_pareto: final point must reach the Algorithm 1 bound");
  return points;
}

std::vector<SensitivityEntry> disparity_sensitivity(
    AnalysisEngine& engine, TaskId task, const SensitivityOptions& opt) {
  obs::Span span("engine", "disparity_sensitivity");
  span.arg("task", static_cast<std::int64_t>(task));
  CETA_EXPECTS(task < engine.graph().num_tasks(),
               "disparity_sensitivity: bad task id");
  CETA_EXPECTS(opt.period_factor > 0.0 && opt.wcet_factor >= 0.0,
               "disparity_sensitivity: factors must be positive");

  // Parameter edits never change the structure, so the ancestor closure
  // (and the chain sets behind the disparity queries) is stable.
  const std::vector<TaskId> closure = ancestors(engine.graph(), task);

  // Schedulability of the closure gates the disparity query; only the
  // analyzed task's ancestors need finite response times.  The engine's
  // scoped RTA refresh re-runs just the perturbed cohort per probe.
  const auto bound_of = [&](Duration& out) {
    const RtaResult& rta = engine.rta();
    for (const TaskId anc : closure) {
      if (!rta.schedulable[anc]) return false;
    }
    out = engine.disparity(task, opt.disparity).worst_case;
    return true;
  };

  Duration baseline;
  CETA_EXPECTS(bound_of(baseline),
               "disparity_sensitivity: baseline system is unschedulable");

  std::vector<SensitivityEntry> entries;
  // Probe one applied perturbation, then undo it (also on exceptions).
  const auto probe = [&](TaskId anc, PerturbedParam param, const char* what,
                         const auto& undo) {
    SensitivityEntry e;
    e.task = anc;
    e.param = param;
    e.baseline = baseline;
    run_then_restore(
        what, [&] { e.schedulable = bound_of(e.perturbed); }, undo);
    if (!e.schedulable) e.perturbed = baseline;
    entries.push_back(e);
  };
  for (const TaskId anc : closure) {
    // Period perturbation.  (A copy: the probes edit the engine's task.)
    const Task t = engine.graph().task(anc);
    const Duration old_period = t.period;
    const Duration new_period = scaled(old_period, opt.period_factor);
    if (new_period > Duration::zero() && new_period > t.wcet &&
        t.offset < new_period && t.jitter < new_period) {
      engine.set_period(anc, new_period);
      probe(anc, PerturbedParam::kPeriod,
            "disparity_sensitivity: period restore",
            [&] { engine.set_period(anc, old_period); });
    }
    // WCET perturbation (sources have zero execution time — skip).
    if (t.wcet > Duration::zero()) {
      const Duration old_bcet = t.bcet;
      const Duration old_wcet = t.wcet;
      const Duration new_wcet = scaled(old_wcet, opt.wcet_factor);
      engine.set_wcet_range(anc, std::min(old_bcet, new_wcet), new_wcet);
      probe(anc, PerturbedParam::kWcet, "disparity_sensitivity: WCET restore",
            [&] { engine.set_wcet_range(anc, old_bcet, old_wcet); });
    }
  }

  std::sort(entries.begin(), entries.end(),
            [](const SensitivityEntry& a, const SensitivityEntry& b) {
              if (a.schedulable != b.schedulable) return a.schedulable;
              const Duration da = a.delta() < Duration::zero() ? -a.delta()
                                                               : a.delta();
              const Duration db = b.delta() < Duration::zero() ? -b.delta()
                                                               : b.delta();
              return da > db;
            });
  return entries;
}

OffsetPlan plan_source_offsets(AnalysisEngine& engine, TaskId task,
                               const OffsetPlanOptions& opt) {
  obs::Span span("engine", "plan_source_offsets");
  span.arg("task", static_cast<std::int64_t>(task));
  const TaskGraph& g = engine.graph();
  CETA_EXPECTS(task < g.num_tasks(), "plan_source_offsets: bad task id");
  CETA_EXPECTS(opt.granularity > Duration::zero(),
               "plan_source_offsets: granularity must be positive");
  CETA_EXPECTS(opt.passes >= 1, "plan_source_offsets: need >= 1 pass");

  OffsetPlan plan;
  plan.baseline =
      exact_let_disparity(g, task, opt.path_cap, opt.max_releases)
          .worst_disparity;
  plan.optimized = plan.baseline;
  ++plan.evaluations;

  // The tunable coordinates, with their pre-call offsets for the restore.
  std::vector<TaskId> tunables;
  std::vector<Duration> originals;
  for (const TaskId id : ancestors(g, task)) {
    if (g.is_source(id) ||
        opt.tunables == OffsetTunables::kAllClosureTasks) {
      tunables.push_back(id);
      originals.push_back(g.task(id).offset);
    }
  }

  const auto restore = [&] {
    AnalysisEngine::Transaction txn(engine);
    for (std::size_t i = 0; i < tunables.size(); ++i) {
      txn.set_offset(tunables[i], originals[i]);
    }
    txn.commit();
  };

  const auto sweep = [&] {
    // Offset edits invalidate nothing (§9 row "offset"): the sweep pays
    // exactly the exact-oracle evaluations, no graph copies, no cache
    // churn.
    for (int pass = 0;
         pass < opt.passes && plan.optimized > Duration::zero(); ++pass) {
      bool improved = false;
      for (const TaskId src : tunables) {
        const Duration start = g.task(src).offset;
        const Duration period = g.task(src).period;
        Duration best_offset = start;
        Duration best = plan.optimized;
        for (Duration cand = Duration::zero(); cand < period;
             cand += opt.granularity) {
          if (cand == start) continue;
          engine.set_offset(src, cand);
          const Duration d =
              exact_let_disparity(g, task, opt.path_cap, opt.max_releases)
                  .worst_disparity;
          ++plan.evaluations;
          if (opt.fault_fail_after_evaluations != 0 &&
              plan.evaluations >= opt.fault_fail_after_evaluations) {
            throw Error("plan_source_offsets: injected offset-sweep fault");
          }
          if (d < best) {
            best = d;
            best_offset = cand;
          }
        }
        engine.set_offset(src, best_offset);
        if (best < plan.optimized) {
          plan.optimized = best;
          improved = true;
        }
      }
      if (!improved) break;
    }
    for (const TaskId src : tunables) {
      plan.offsets.push_back(OffsetAssignment{src, g.task(src).offset});
    }
  };
  run_then_restore("plan_source_offsets: offset restore", sweep, restore);
  return plan;
}

void apply_offset_plan(TaskGraph& g, const OffsetPlan& plan) {
  for (const OffsetAssignment& a : plan.offsets) {
    g.task(a.task).offset = a.offset;
  }
}

}  // namespace ceta
