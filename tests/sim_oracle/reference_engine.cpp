#include "sim_oracle/reference_engine.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "sim/exec_model.hpp"
#include "sim_oracle/channel.hpp"

namespace ceta::sim {

namespace {

enum class EventKind : int {
  kFinish = 0,         // writes become visible first at any instant
  kPublish = 1,        // LET publishes too (before same-instant reads)
  kSourceRelease = 2,  // source tokens appear before same-instant starts
  kRelease = 3,
};

struct Event {
  Instant time;
  EventKind kind;
  std::uint64_t seq;  // deterministic tie-break
  TaskId task;        // release events
  std::int64_t job;   // release events
  std::size_t ecu;    // finish events (dense ECU index)

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (kind != o.kind) return static_cast<int>(kind) > static_cast<int>(o.kind);
    return seq > o.seq;
  }
};

/// A job anywhere between release and completion: freshly released,
/// running, or preempted with partial progress.
struct JobState {
  TaskId task = 0;
  std::int64_t job = -1;
  Instant release;
  /// Implicit absolute deadline (release + period); orders EDF dispatch.
  Instant deadline;
  /// LET jobs snapshot their inputs at release; implicit jobs read when
  /// they first start.
  bool has_snapshot = false;
  /// Set once at the first dispatch; preserved across preemptions.
  bool started = false;
  Instant start;
  Duration remaining;  // execution time left (valid once started)
  Provenance provenance;
  std::vector<ReadLink> reads;  // recorded only when tracing
};

struct EcuState {
  bool busy = false;
  JobState running;
  /// Progress timestamp of the running job (for preemption accounting).
  Instant resumed_at;
  /// Generation of the outstanding finish event; 0 = none.  A stale
  /// finish event (after a preemption) carries an older generation and is
  /// discarded.
  std::uint64_t expected_finish_gen = 0;
  std::vector<JobState> ready;
};

class ReferenceEngine {
 public:
  ReferenceEngine(const TaskGraph& g, const SimOptions& opt)
      : g_(g), opt_(opt), stream_(opt.seed) {
    opt_.validate();
    g_.validate();

    // Dense ECU indexing, plus the resolved discipline per dense index
    // (options override if set, else the graph's per-ECU policy).
    for (TaskId id = 0; id < g_.num_tasks(); ++id) {
      const EcuId e = g_.task(id).ecu;
      if (e != kNoEcu && !ecu_index_.count(e)) {
        const std::size_t idx = ecus_.size();
        ecu_index_[e] = idx;
        ecus_.emplace_back();
        ecu_policy_.push_back(opt_.policy.value_or(g_.policy(e)));
      }
    }

    // Channel per edge, indexed by edge order; per-task input/output maps.
    for (const Edge& e : g_.edges()) {
      channels_.emplace_back(e.channel.buffer_size);
    }
    inputs_.resize(g_.num_tasks());
    outputs_.resize(g_.num_tasks());
    for (std::size_t i = 0; i < g_.edges().size(); ++i) {
      const Edge& e = g_.edges()[i];
      inputs_[e.to].push_back(i);
      outputs_[e.from].push_back(i);
    }
    // Align each task's input channels with g.predecessors(task) order so
    // trace ReadLinks line up.
    for (TaskId id = 0; id < g_.num_tasks(); ++id) {
      auto& ins = inputs_[id];
      const auto& preds = g_.predecessors(id);
      std::sort(ins.begin(), ins.end(), [&](std::size_t a, std::size_t b) {
        const TaskId fa = g_.edges()[a].from;
        const TaskId fb = g_.edges()[b].from;
        const auto pa = std::find(preds.begin(), preds.end(), fa);
        const auto pb = std::find(preds.begin(), preds.end(), fb);
        return pa < pb;
      });
    }

    result_.max_disparity.assign(g_.num_tasks(), Duration::zero());
    result_.jobs_observed.assign(g_.num_tasks(), 0);
    result_.jobs_finished.assign(g_.num_tasks(), 0);
    result_.max_response_time.assign(g_.num_tasks(), Duration::zero());
    result_.preemptions.assign(g_.num_tasks(), 0);
    if (opt_.record_trace) result_.trace.tasks.resize(g_.num_tasks());
  }

  SimResult run() {
    // Seed the first release of every task.
    for (TaskId id = 0; id < g_.num_tasks(); ++id) {
      const Task& t = g_.task(id);
      if (t.offset < opt_.duration) {
        push_release(id, 0, t.offset);
      }
    }
    // Two-phase processing per instant (see simulator.cpp for the
    // rationale; the loops must stay structurally identical).
    while (!queue_.empty()) {
      const Instant now = queue_.top().time;
      while (!queue_.empty() && queue_.top().time == now) {
        while (!queue_.empty() && queue_.top().time == now) {
          const Event ev = queue_.top();
          queue_.pop();
          switch (ev.kind) {
            case EventKind::kSourceRelease:
              on_source_release(ev);
              break;
            case EventKind::kRelease:
              on_release(ev);
              break;
            case EventKind::kFinish:
              on_finish(ev);
              break;
            case EventKind::kPublish:
              on_publish(ev);
              break;
          }
        }
        for (const std::size_t idx : pending_dispatch_) {
          maybe_preempt(idx, now);
          if (!ecus_[idx].busy) dispatch(idx, now);
        }
        pending_dispatch_.clear();
      }
    }

    return std::move(result_);
  }

 private:
  /// Schedule job `job` of `task`: nominal release offset + job·T, plus
  /// the SimStream's jitter draw for (task, job).
  void push_release(TaskId task, std::int64_t job, Instant nominal) {
    if (++jobs_created_ > opt_.max_jobs) {
      throw CapacityError("simulate: job cap exceeded (max_jobs)");
    }
    const Task& t = g_.task(task);
    const Instant actual = sample_release(t, task, job, nominal, stream_);
    const EventKind kind = g_.is_source(task) ? EventKind::kSourceRelease
                                              : EventKind::kRelease;
    queue_.push(Event{actual, kind, seq_++, task, job, 0});
  }

  void schedule_next_release(TaskId task, std::int64_t job) {
    const Task& t = g_.task(task);
    const Instant next = t.offset + t.period * (job + 1);
    if (next < opt_.duration) push_release(task, job + 1, next);
  }

  void on_source_release(const Event& ev) {
    const Instant now = ev.time;
    // Source tasks execute in zero time; the token timestamp is the
    // release time (t(J) = r(J), §II-B).
    Token token;
    token.producer_task = ev.task;
    token.producer_job = ev.job;
    token.producer_release = now;
    token.write_time = now;
    token.provenance = Provenance::of_source(ev.task, now);
    for (std::size_t ch : outputs_[ev.task]) {
      channels_[ch].write(token);
    }
    ++result_.jobs_finished[ev.task];
    if (opt_.record_trace) {
      result_.trace.tasks[ev.task].jobs.push_back(
          JobRecord{ev.job, now, now, now, {}});
    }
    schedule_next_release(ev.task, ev.job);
  }

  void on_release(const Event& ev) {
    const std::size_t idx = ecu_index_.at(g_.task(ev.task).ecu);
    JobState job;
    job.task = ev.task;
    job.job = ev.job;
    job.release = ev.time;
    job.deadline = ev.time + g_.task(ev.task).period;
    if (g_.task(ev.task).comm == CommSemantics::kLet) {
      // LET: inputs are logically read at release.
      read_inputs(ev.task, job.provenance, job.reads);
      job.has_snapshot = true;
    }
    ecus_[idx].ready.push_back(std::move(job));
    pending_dispatch_.push_back(idx);
    schedule_next_release(ev.task, ev.job);
  }

  /// Under preemptive scheduling: if a strictly higher-priority (FP) or
  /// strictly earlier-deadline (EDF) job is ready while another runs,
  /// suspend the running job (its pending finish event goes stale) and
  /// requeue it with its remaining work.
  void maybe_preempt(std::size_t ecu_idx, Instant now) {
    const SchedPolicy policy = ecu_policy_[ecu_idx];
    if (policy == SchedPolicy::kNonPreemptive) return;
    EcuState& ecu = ecus_[ecu_idx];
    if (!ecu.busy || ecu.ready.empty()) return;
    bool higher_ready = false;
    if (policy == SchedPolicy::kPreemptive) {
      const Task& running = g_.task(ecu.running.task);
      for (const JobState& j : ecu.ready) {
        if (g_.task(j.task).priority < running.priority) {
          higher_ready = true;
          break;
        }
      }
    } else {  // kEdf
      for (const JobState& j : ecu.ready) {
        if (j.deadline < ecu.running.deadline) {
          higher_ready = true;
          break;
        }
      }
    }
    if (!higher_ready) return;
    ecu.running.remaining -= now - ecu.resumed_at;
    CETA_ASSERT(ecu.running.remaining > Duration::zero(),
                "preempting a job that should already have finished");
    ++result_.preemptions[ecu.running.task];
    ecu.expected_finish_gen = 0;  // invalidate the outstanding finish
    ecu.ready.push_back(std::move(ecu.running));
    ecu.busy = false;
  }

  /// Read every input channel of `task`; fill provenance and (when
  /// tracing) the read links.
  void read_inputs(TaskId task, Provenance& provenance,
                   std::vector<ReadLink>& reads) {
    for (std::size_t ch : inputs_[task]) {
      const std::optional<Token> tok = channels_[ch].read();
      if (tok) provenance.merge(tok->provenance);
      if (opt_.record_trace) {
        ReadLink link;
        link.from = g_.edges()[ch].from;
        if (tok) {
          link.producer_job = tok->producer_job;
          link.producer_release = tok->producer_release;
        }
        reads.push_back(link);
      }
    }
  }

  void dispatch(std::size_t ecu_idx, Instant now) {
    EcuState& ecu = ecus_[ecu_idx];
    CETA_ASSERT(!ecu.busy, "dispatch on a busy ECU");
    if (ecu.ready.empty()) return;
    // Fixed priority: highest priority first (smaller value), ties by
    // task id, then by release (a preempted job resumes before a later
    // instance).  EDF: earliest absolute deadline first, same tie order.
    const bool edf = ecu_policy_[ecu_idx] == SchedPolicy::kEdf;
    auto best = ecu.ready.begin();
    for (auto it = ecu.ready.begin() + 1; it != ecu.ready.end(); ++it) {
      bool wins = false;
      if (edf) {
        wins = it->deadline < best->deadline ||
               (it->deadline == best->deadline &&
                (it->task < best->task ||
                 (it->task == best->task && it->release < best->release)));
      } else {
        const Task& a = g_.task(it->task);
        const Task& b = g_.task(best->task);
        wins = a.priority < b.priority ||
               (a.priority == b.priority &&
                (it->task < best->task ||
                 (it->task == best->task && it->release < best->release)));
      }
      if (wins) best = it;
    }
    JobState job = std::move(*best);
    ecu.ready.erase(best);

    if (!job.started) {
      if (!job.has_snapshot) {
        // Implicit communication: read every input channel at the first
        // start (preemptions do not re-read).
        read_inputs(job.task, job.provenance, job.reads);
      }
      job.start = now;
      job.remaining =
          sample_execution_time(opt_.exec_model, opt_.exec_hook,
                                g_.task(job.task), job.task, job.job, stream_);
      job.started = true;
    }

    ecu.busy = true;
    ecu.resumed_at = now;
    ecu.expected_finish_gen = ++finish_gen_;
    const Instant finish_at = now + job.remaining;
    ecu.running = std::move(job);
    queue_.push(Event{finish_at, EventKind::kFinish, seq_++, 0,
                      static_cast<std::int64_t>(ecu.expected_finish_gen),
                      ecu_idx});
  }

  void on_finish(const Event& ev) {
    EcuState& ecu = ecus_[ev.ecu];
    // Discard finish events invalidated by a preemption.
    if (!ecu.busy ||
        static_cast<std::uint64_t>(ev.job) != ecu.expected_finish_gen) {
      return;
    }
    JobState& run = ecu.running;
    const Instant now = ev.time;

    // Implicit tasks write at finish; LET tasks publish at their deadline
    // (or at the finish instant if the deadline was missed, to preserve
    // causality).
    Token token;
    token.producer_task = run.task;
    token.producer_job = run.job;
    token.producer_release = run.release;
    token.provenance = run.provenance;
    if (g_.task(run.task).comm == CommSemantics::kLet) {
      const Instant deadline = run.release + g_.task(run.task).period;
      const Instant publish_at = std::max(now, deadline);
      token.write_time = publish_at;
      const std::uint64_t key = seq_++;
      pending_publish_.emplace(key, std::move(token));
      queue_.push(Event{publish_at, EventKind::kPublish, key, run.task, 0, 0});
    } else {
      token.write_time = now;
      for (std::size_t ch : outputs_[run.task]) {
        channels_[ch].write(token);
      }
    }

    // Metrics.
    ++result_.jobs_finished[run.task];
    result_.max_response_time[run.task] =
        std::max(result_.max_response_time[run.task], now - run.release);
    if (run.release >= opt_.warmup && !run.provenance.empty()) {
      result_.max_disparity[run.task] = std::max(
          result_.max_disparity[run.task], run.provenance.disparity());
      ++result_.jobs_observed[run.task];
    }
    if (opt_.record_trace) {
      result_.trace.tasks[run.task].jobs.push_back(JobRecord{
          run.job, run.release, run.start, now, std::move(run.reads)});
    }

    ecu.busy = false;
    ecu.expected_finish_gen = 0;
    pending_dispatch_.push_back(ev.ecu);
  }

  void on_publish(const Event& ev) {
    const auto it = pending_publish_.find(ev.seq);
    CETA_ASSERT(it != pending_publish_.end(),
                "publish event without pending token");
    for (std::size_t ch : outputs_[ev.task]) {
      channels_[ch].write(it->second);
    }
    pending_publish_.erase(it);
  }

  const TaskGraph& g_;
  SimOptions opt_;
  SimStream stream_;

  std::map<EcuId, std::size_t> ecu_index_;
  std::vector<EcuState> ecus_;
  std::vector<SchedPolicy> ecu_policy_;  // resolved, by dense ECU index
  std::vector<SimChannel> channels_;           // by edge index
  std::vector<std::vector<std::size_t>> inputs_;   // task -> edge indices
  std::vector<std::vector<std::size_t>> outputs_;  // task -> edge indices

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::vector<std::size_t> pending_dispatch_;  // ECUs to arbitrate this instant
  std::map<std::uint64_t, Token> pending_publish_;  // LET tokens in flight
  std::uint64_t finish_gen_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t jobs_created_ = 0;

  SimResult result_;
};

}  // namespace

SimResult simulate_reference(const TaskGraph& g, const SimOptions& opt) {
  ReferenceEngine engine(g, opt);
  return engine.run();
}

}  // namespace ceta::sim
