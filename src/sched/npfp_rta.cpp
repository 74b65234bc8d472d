#include "sched/npfp_rta.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/edf_rta.hpp"

namespace ceta {

namespace {

using Competitor = CompetingTask;

/// Fixpoint of L = blocking + q-independent demand over [0, L).
/// Returns Duration::max() on divergence.
Duration busy_period_length(Duration blocking,
                            const std::vector<Competitor>& own_and_hp,
                            int max_iterations) {
  Duration L = blocking;
  for (const Competitor& c : own_and_hp) L += c.wcet;
  if (L == Duration::zero()) return Duration::zero();
  for (int it = 0; it < max_iterations; ++it) {
    Duration next = blocking;
    for (const Competitor& c : own_and_hp) {
      next += c.wcet * ceil_div(L + c.jitter, c.period);
    }
    if (next == L) return L;
    CETA_ASSERT(next > L, "busy period iteration must be non-decreasing");
    L = next;
  }
  return Duration::max();
}

/// Fixpoint of w = blocking + q*W_i + Σ_hp (floor(w/T)+1)*W.
/// Returns Duration::max() on divergence.
Duration queueing_delay(Duration blocking, Duration own_wcet, std::int64_t q,
                        const std::vector<Competitor>& hp,
                        int max_iterations) {
  Duration w = blocking + own_wcet * q;
  for (int it = 0; it < max_iterations; ++it) {
    Duration next = blocking + own_wcet * q;
    for (const Competitor& c : hp) {
      next += c.wcet * (floor_div(w + c.jitter, c.period) + 1);
    }
    if (next == w) return w;
    CETA_ASSERT(next > w, "queueing delay iteration must be non-decreasing");
    w = next;
  }
  return Duration::max();
}

/// WCRT + schedulability of one task, written into `res`; adds the
/// cohort members it visits to `visited`.  Single source of truth shared by
/// analyze_response_times and reanalyze_response_times — scoped refreshes
/// are bit-identical to a full run because both execute exactly this
/// routine per task.  `cohort` is id's EcuIndex cohort, in ascending id
/// order, so the competitor lists and the utilization sum come out in
/// the order of a scan over all task ids.
void analyze_task_into(const TaskGraph& g, const RtaOptions& opt,
                       std::span<const TaskId> cohort, TaskId id,
                       RtaResult& res, std::uint64_t& visited) {
  const Task& t = g.task(id);
  res.schedulable[id] = true;
  if (t.ecu == kNoEcu) {
    // Source tasks (external stimuli) finish instantly at their actual
    // release, up to `jitter` after the nominal one.
    res.response_time[id] = t.jitter;
    return;
  }
  visited += cohort.size();

  // Partition same-resource competitors by priority (EDF ignores the
  // partition and contends against the full cohort).
  std::vector<Competitor> hp;
  std::vector<Competitor> cohort_others;
  Duration blocking = Duration::zero();
  for (const TaskId other : cohort) {
    if (other == id) continue;
    const Task& o = g.task(other);
    CETA_EXPECTS(o.priority != t.priority,
                 "analyze_response_times: duplicate priority on ECU " +
                     std::to_string(t.ecu));
    cohort_others.push_back({o.wcet, o.period, o.jitter});
    if (higher_priority(o, t)) {
      hp.push_back({o.wcet, o.period, o.jitter});
    } else {
      blocking = std::max(blocking, o.wcet);
    }
  }

  if (resource_utilization(g, cohort) >= 1.0) {
    res.response_time[id] = Duration::max();
    res.schedulable[id] = false;
    return;
  }

  const SchedPolicy policy = opt.policy.value_or(g.policy(t.ecu));
  Duration worst = Duration::zero();
  switch (policy) {
    case SchedPolicy::kNonPreemptive:
      worst = npfp_response_time(t.wcet, t.period, blocking, hp, t.jitter,
                                 opt.max_iterations);
      break;
    case SchedPolicy::kPreemptive:
      if (opt.fault_drop_largest_hp && !hp.empty()) {
        const auto widest = std::max_element(
            hp.begin(), hp.end(), [](const Competitor& a, const Competitor& b) {
              return a.wcet < b.wcet;
            });
        hp.erase(widest);
      }
      worst = preemptive_response_time(t.wcet, t.period, hp, t.jitter,
                                       opt.max_iterations);
      break;
    case SchedPolicy::kEdf:
      worst = edf_response_time(t.wcet, t.period, cohort_others, t.jitter,
                                opt.max_iterations, opt.fault_edf_undercount);
      break;
  }
  if (worst == Duration::max()) {
    res.response_time[id] = Duration::max();
    res.schedulable[id] = false;
    return;
  }
  res.response_time[id] = worst;
  if (opt.implicit_deadline && worst > t.period) {
    res.schedulable[id] = false;
  }
}

}  // namespace

Duration npfp_response_time(Duration wcet, Duration period, Duration blocking,
                            const std::vector<CompetingTask>& hp,
                            Duration own_jitter, int max_iterations) {
  CETA_EXPECTS(period > Duration::zero(),
               "npfp_response_time: period must be positive");
  // Divergence pre-check: demand density of the busy period.
  double density = 0.0;
  for (const CompetingTask& c : hp) density += c.wcet.ratio(c.period);
  density += wcet.ratio(period);
  if (density >= 1.0) return Duration::max();

  std::vector<CompetingTask> own_and_hp = hp;
  own_and_hp.push_back({wcet, period, own_jitter});
  const Duration L = busy_period_length(blocking, own_and_hp, max_iterations);
  if (L == Duration::max()) return Duration::max();
  const std::int64_t Q = std::max<std::int64_t>(1, ceil_div(L, period));
  Duration worst = Duration::zero();
  for (std::int64_t q = 0; q < Q; ++q) {
    const Duration w = queueing_delay(blocking, wcet, q, hp, max_iterations);
    if (w == Duration::max()) return Duration::max();
    // Response relative to the nominal release: the q-th instance may be
    // released up to own_jitter late but queues from its actual release.
    worst = std::max(worst, own_jitter + w + wcet - period * q);
  }
  return worst;
}

Duration preemptive_response_time(Duration wcet, Duration period,
                                  const std::vector<CompetingTask>& hp,
                                  Duration own_jitter, int max_iterations) {
  CETA_EXPECTS(period > Duration::zero(),
               "preemptive_response_time: period must be positive");
  double density = wcet.ratio(period);
  for (const CompetingTask& c : hp) density += c.wcet.ratio(c.period);
  if (density >= 1.0) return Duration::max();

  // Level-i busy period (jitter-aware).
  std::vector<CompetingTask> own_and_hp = hp;
  own_and_hp.push_back({wcet, period, own_jitter});
  const Duration L =
      busy_period_length(Duration::zero(), own_and_hp, max_iterations);
  if (L == Duration::max()) return Duration::max();
  const std::int64_t Q = std::max<std::int64_t>(1, ceil_div(L, period));

  Duration worst = Duration::zero();
  for (std::int64_t q = 0; q < Q; ++q) {
    // w_q = (q+1)·C + Σ_hp ceil((w_q + J)/T)·C, by fixpoint iteration.
    Duration w = wcet * (q + 1);
    bool converged = false;
    for (int it = 0; it < max_iterations; ++it) {
      Duration next = wcet * (q + 1);
      for (const CompetingTask& c : hp) {
        next += c.wcet * ceil_div(w + c.jitter, c.period);
      }
      if (next == w) {
        converged = true;
        break;
      }
      CETA_ASSERT(next > w,
                  "preemptive response iteration must be non-decreasing");
      w = next;
    }
    if (!converged) return Duration::max();
    worst = std::max(worst, own_jitter + w - period * q);
  }
  return worst;
}

double resource_utilization(const TaskGraph& g,
                            std::span<const TaskId> cohort) {
  double u = 0.0;
  for (const TaskId id : cohort) {
    const Task& t = g.task(id);
    u += t.wcet.ratio(t.period);
  }
  return u;
}

RtaResult analyze_response_times(const TaskGraph& g, const RtaOptions& opt) {
  obs::Span span("sched", "analyze_response_times");
  span.arg("tasks", static_cast<std::int64_t>(g.num_tasks()));
  static obs::Counter& runs =
      obs::MetricsRegistry::global().counter("sched.rta.runs");
  static obs::Counter& tasks_analyzed =
      obs::MetricsRegistry::global().counter("sched.rta.tasks");
  static obs::Counter& competitors =
      obs::MetricsRegistry::global().counter("sched.rta.competitors");
  runs.add();
  tasks_analyzed.add(g.num_tasks());

  RtaResult res;
  res.response_time.assign(g.num_tasks(), Duration::zero());
  res.schedulable.assign(g.num_tasks(), true);

  const EcuIndex index(g);
  std::uint64_t visited = 0;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    analyze_task_into(g, opt, index.cohort(id), id, res, visited);
  }
  competitors.add(visited);

  res.all_schedulable = std::all_of(res.schedulable.begin(),
                                    res.schedulable.end(),
                                    [](bool b) { return b; });
  return res;
}

void reanalyze_response_times(const TaskGraph& g, const RtaOptions& opt,
                              const EcuIndex& index,
                              const std::vector<TaskId>& tasks,
                              RtaResult& res) {
  CETA_EXPECTS(res.response_time.size() == g.num_tasks() &&
                   res.schedulable.size() == g.num_tasks(),
               "reanalyze_response_times: result size mismatch");
  CETA_EXPECTS(index.num_tasks() == g.num_tasks(),
               "reanalyze_response_times: index size mismatch");
  obs::Span span("sched", "reanalyze_response_times");
  span.arg("tasks", static_cast<std::int64_t>(tasks.size()));
  static obs::Counter& refreshes =
      obs::MetricsRegistry::global().counter("sched.rta.refreshes");
  static obs::Counter& tasks_analyzed =
      obs::MetricsRegistry::global().counter("sched.rta.tasks");
  static obs::Counter& competitors =
      obs::MetricsRegistry::global().counter("sched.rta.competitors");
  refreshes.add();
  tasks_analyzed.add(tasks.size());

  std::uint64_t visited = 0;
  for (const TaskId id : tasks) {
    CETA_EXPECTS(id < g.num_tasks(),
                 "reanalyze_response_times: unknown task id");
    analyze_task_into(g, opt, index.cohort(id), id, res, visited);
  }
  competitors.add(visited);
  res.all_schedulable = std::all_of(res.schedulable.begin(),
                                    res.schedulable.end(),
                                    [](bool b) { return b; });
}

}  // namespace ceta
