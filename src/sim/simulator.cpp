#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/ecu_index.hpp"

namespace ceta {

void SimOptions::validate() const {
  if (duration <= Duration::zero()) {
    throw InvalidOptionsError("SimOptions: duration must be positive");
  }
  if (warmup < Duration::zero() || warmup >= duration) {
    throw InvalidOptionsError("SimOptions: warmup must lie in [0, duration)");
  }
  if (max_jobs == 0) {
    throw InvalidOptionsError("SimOptions: max_jobs must be >= 1");
  }
  if (exec_model == ExecTimeModel::kCustom && !exec_hook) {
    throw InvalidOptionsError("SimOptions: kCustom requires an exec_hook");
  }
  if (exec_model != ExecTimeModel::kCustom && exec_hook) {
    throw InvalidOptionsError(
        "SimOptions: exec_hook is set but exec_model is not kCustom (it "
        "would be silently ignored)");
  }
}

}  // namespace ceta

namespace ceta::sim {

namespace {
constexpr std::uint32_t kNoEcuIdx = UINT32_MAX;
}  // namespace

void SimBatchResult::merge(const SimBatchResult& other) {
  CETA_EXPECTS(max_disparity.size() == other.max_disparity.size(),
               "SimBatchResult::merge: task-count mismatch");
  replications += other.replications;
  events += other.events;
  for (std::size_t i = 0; i < max_disparity.size(); ++i) {
    max_disparity[i] = std::max(max_disparity[i], other.max_disparity[i]);
    jobs_observed[i] += other.jobs_observed[i];
    jobs_finished[i] += other.jobs_finished[i];
    max_response_time[i] =
        std::max(max_response_time[i], other.max_response_time[i]);
    preemptions[i] += other.preemptions[i];
  }
}

Simulator::Simulator(const TaskGraph& g, SimOptions opt)
    : g_(g), opt_(std::move(opt)) {
  opt_.validate();
  g_.validate();

  const std::size_t n = g_.num_tasks();

  // Dense ECU indexing from the shared per-ECU partition: index k is the
  // k-th ECU in ascending EcuId order (EcuIndex::ecus()).  Events are
  // ordered by (time, kind, seq), never by ECU index, so the numbering
  // does not leak into results.
  const EcuIndex index(g_);
  num_ecus_ = static_cast<std::uint32_t>(index.ecus().size());
  ecus_.resize(num_ecus_);
  ecu_policy_.resize(num_ecus_);
  ecu_of_task_.assign(n, kNoEcuIdx);
  for (std::uint32_t k = 0; k < num_ecus_; ++k) {
    const EcuId ecu = index.ecus()[k];
    ecu_policy_[k] = opt_.policy.value_or(g_.policy(ecu));
    for (const TaskId id : index.members(ecu)) ecu_of_task_[id] = k;
  }

  // Flatten per-task constants for the event handlers.
  rows_.resize(n);
  for (TaskId id = 0; id < n; ++id) {
    const Task& t = g_.task(id);
    TaskRow& r = rows_[id];
    r.offset = t.offset;
    r.period = t.period;
    r.jitter = t.jitter;
    r.bcet = t.bcet;
    r.wcet = t.wcet;
    r.priority = t.priority;
    r.ecu_idx = ecu_of_task_[id];
    r.is_let = t.comm == CommSemantics::kLet;
    r.is_source = g_.is_source(id);
  }

  // Dense source order (ascending task id).
  source_index_.assign(n, -1);
  for (TaskId id = 0; id < n; ++id) {
    if (g_.is_source(id)) {
      source_index_[id] = static_cast<std::int32_t>(sources_.size());
      sources_.push_back(id);
    }
  }

  // CSR input/output edge lists; inputs sorted to predecessors order so
  // trace ReadLinks line up (same rule as the test-only reference engine).
  const std::size_t m = g_.edges().size();
  std::vector<std::vector<std::uint32_t>> ins(n), outs(n);
  for (std::size_t e = 0; e < m; ++e) {
    ins[g_.edges()[e].to].push_back(static_cast<std::uint32_t>(e));
    outs[g_.edges()[e].from].push_back(static_cast<std::uint32_t>(e));
  }
  for (TaskId id = 0; id < n; ++id) {
    const auto& preds = g_.predecessors(id);
    std::sort(ins[id].begin(), ins[id].end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const TaskId fa = g_.edges()[a].from;
                const TaskId fb = g_.edges()[b].from;
                const auto pa = std::find(preds.begin(), preds.end(), fa);
                const auto pb = std::find(preds.begin(), preds.end(), fb);
                return pa < pb;
              });
  }
  in_off_.assign(n + 1, 0);
  out_off_.assign(n + 1, 0);
  for (TaskId id = 0; id < n; ++id) {
    in_off_[id + 1] = in_off_[id] + static_cast<std::uint32_t>(ins[id].size());
    out_off_[id + 1] =
        out_off_[id] + static_cast<std::uint32_t>(outs[id].size());
    in_edges_.insert(in_edges_.end(), ins[id].begin(), ins[id].end());
    out_edges_.insert(out_edges_.end(), outs[id].begin(), outs[id].end());
  }

  // Channel rings: one arena of token slots, one of provenance blocks.
  chan_off_.assign(m + 1, 0);
  chan_cap_.assign(m, 0);
  for (std::size_t e = 0; e < m; ++e) {
    chan_cap_[e] =
        static_cast<std::uint32_t>(g_.edges()[e].channel.buffer_size);
    chan_off_[e + 1] = chan_off_[e] + chan_cap_[e];
  }
  token_slots_.resize(chan_off_[m]);
  token_prov_.resize(static_cast<std::size_t>(chan_off_[m]) * prov_stride());
  chan_head_.assign(m, 0);
  chan_count_.assign(m, 0);
  scratch_prov_.resize(prov_stride());

  // Calendar geometry from the release lattice: a bucket is roughly an
  // eighth of the shortest period (rounded down to a power of two so the
  // bucket hash is a shift), and one "year" (1024 buckets) spans ~128 short
  // periods — next-release events almost always land inside it, and the
  // whole-year cursor sweep is paid rarely.  The width is capped at 2^52
  // so a year stays <= 2^62 ns: at a minimum period >= 2^56 the uncapped
  // year would reach 2^63 and wrap, and no event would ever fit the open
  // year.  Shorter minimum periods never reach the cap.
  constexpr std::uint64_t kMaxWidth = std::uint64_t{1} << 52;
  Duration min_period = Duration::max();
  for (TaskId id = 0; id < n; ++id) {
    min_period = std::min(min_period, g_.task(id).period);
  }
  const std::uint64_t raw =
      std::max<std::int64_t>(std::int64_t{1}, min_period.count() / 8);
  const Duration width = Duration::ns(
      static_cast<std::int64_t>(std::min(std::bit_floor(raw), kMaxWidth)));
  queue_.configure(width, 1024);

  reset();
}

void Simulator::reset() {
  queue_.clear();
  for (EcuRun& e : ecus_) {
    e.busy = false;
    e.expected_finish_gen = 0;
    e.ready.clear();
  }
  std::fill(chan_head_.begin(), chan_head_.end(), 0u);
  std::fill(chan_count_.begin(), chan_count_.end(), 0u);
  free_jobs_.clear();
  for (std::uint32_t i = 0; i < jobs_.size(); ++i) free_jobs_.push_back(i);
  free_publish_.clear();
  for (std::uint32_t i = 0; i < publish_slots_.size(); ++i) {
    free_publish_.push_back(i);
  }
  pending_dispatch_.clear();
  seq_ = 0;
  finish_gen_ = 0;
  jobs_created_ = 0;
  events_run_ = 0;

  const std::size_t n = g_.num_tasks();
  result_.max_disparity.assign(n, Duration::zero());
  result_.jobs_observed.assign(n, 0);
  result_.jobs_finished.assign(n, 0);
  result_.max_response_time.assign(n, Duration::zero());
  result_.preemptions.assign(n, 0);
  result_.trace.tasks.clear();
  if (opt_.record_trace) result_.trace.tasks.resize(n);
}

// --- provenance blocks ------------------------------------------------------

void Simulator::prov_clear(Instant* p) const {
  const std::size_t s = sources_.size();
  for (std::size_t i = 0; i < s; ++i) p[i] = Duration::max();
  for (std::size_t i = 0; i < s; ++i) p[s + i] = Duration::min();
  p[2 * s] = Duration::max();      // lo
  p[2 * s + 1] = Duration::min();  // hi
}

void Simulator::prov_merge(Instant* dst, const Instant* src) const {
  const std::size_t s = sources_.size();
  // lo rides with the mins and hi with the maxes: index 2s is a min
  // aggregate, 2s+1 a max aggregate, so the two loops cover them too.
  for (std::size_t i = 0; i < s; ++i) dst[i] = std::min(dst[i], src[i]);
  dst[2 * s] = std::min(dst[2 * s], src[2 * s]);
  for (std::size_t i = 0; i < s; ++i) {
    dst[s + i] = std::max(dst[s + i], src[s + i]);
  }
  dst[2 * s + 1] = std::max(dst[2 * s + 1], src[2 * s + 1]);
}

bool Simulator::prov_empty(const Instant* p) const {
  return p[2 * sources_.size()] == Duration::max();
}

Duration Simulator::prov_disparity(const Instant* p) const {
  const std::size_t s = sources_.size();
  if (p[2 * s] == Duration::max()) return Duration::zero();
  return p[2 * s + 1] - p[2 * s];
}

// --- arenas -----------------------------------------------------------------

std::uint32_t Simulator::alloc_job() {
  if (free_jobs_.empty()) {
    jobs_.emplace_back();
    job_prov_.resize(jobs_.size() * prov_stride());
    free_jobs_.push_back(static_cast<std::uint32_t>(jobs_.size() - 1));
  }
  const std::uint32_t slot = free_jobs_.back();
  free_jobs_.pop_back();
  JobSlot& js = jobs_[slot];
  js.has_snapshot = false;
  js.started = false;
  js.reads.clear();
  // The provenance block stays uninitialized: read_inputs() fills it
  // exactly once before any consumer (on_finish) looks at it.
  return slot;
}

void Simulator::free_job(std::uint32_t slot) { free_jobs_.push_back(slot); }

std::uint32_t Simulator::alloc_publish() {
  if (free_publish_.empty()) {
    publish_slots_.emplace_back();
    publish_prov_.resize(publish_slots_.size() * prov_stride());
    free_publish_.push_back(
        static_cast<std::uint32_t>(publish_slots_.size() - 1));
  }
  const std::uint32_t slot = free_publish_.back();
  free_publish_.pop_back();
  return slot;
}

void Simulator::free_publish(std::uint32_t slot) {
  free_publish_.push_back(slot);
}

// --- channels ---------------------------------------------------------------

void Simulator::read_inputs(TaskId task, Instant* prov,
                            std::vector<ReadLink>* reads) {
  // `prov` arrives uninitialized: the first token is copied, later ones
  // merged, and the no-token case falls back to a sentinel clear — one
  // pass less than clear-then-merge-all.
  const std::size_t stride = prov_stride();
  bool fresh = true;
  for (std::uint32_t i = in_off_[task]; i < in_off_[task + 1]; ++i) {
    const std::uint32_t e = in_edges_[i];
    const bool has = chan_count_[e] > 0;
    std::uint32_t slot = 0;
    if (has) {
      // Reads return the *oldest* buffered token (FIFO sliding window).
      slot = chan_off_[e] + chan_head_[e];
      const Instant* src = token_prov_.data() + slot * stride;
      if (fresh) {
        std::copy_n(src, stride, prov);
        fresh = false;
      } else {
        prov_merge(prov, src);
      }
    }
    if (reads) {
      ReadLink link;
      link.from = g_.edges()[e].from;
      if (has) {
        link.producer_job = token_slots_[slot].job;
        link.producer_release = token_slots_[slot].release;
      }
      reads->push_back(link);
    }
  }
  if (fresh) prov_clear(prov);
}

void Simulator::write_outputs(TaskId task, const TokenSlot& tok,
                              const Instant* prov) {
  const std::size_t stride = prov_stride();
  for (std::uint32_t i = out_off_[task]; i < out_off_[task + 1]; ++i) {
    const std::uint32_t e = out_edges_[i];
    const std::uint32_t cap = chan_cap_[e];
    if (chan_count_[e] == cap) {  // evict the oldest
      if (++chan_head_[e] == cap) chan_head_[e] = 0;
      --chan_count_[e];
    }
    // head + count < 2*cap, so one conditional wrap replaces the modulo.
    std::uint32_t pos = chan_head_[e] + chan_count_[e];
    if (pos >= cap) pos -= cap;
    const std::uint32_t slot = chan_off_[e] + pos;
    token_slots_[slot] = tok;
    std::copy_n(prov, stride, token_prov_.data() + slot * stride);
    ++chan_count_[e];
  }
}

// --- event handlers ---------------------------------------------------------

void Simulator::push_release(TaskId task, std::int64_t job, Instant nominal) {
  if (++jobs_created_ > opt_.max_jobs) {
    throw CapacityError("Simulator::run: job cap exceeded (max_jobs)");
  }
  const TaskRow& t = rows_[task];
  // Same draw as sample_release(), without the TaskGraph indirection.
  Instant actual = nominal;
  if (t.jitter > Duration::zero()) {
    actual = nominal + stream_.uniform_duration(Duration::zero(), t.jitter,
                                                task, job, SimStream::kJitter);
  }
  const EventKind kind =
      t.is_source ? EventKind::kSourceRelease : EventKind::kRelease;
  queue_.push(SimEvent{actual, kind, 0, seq_++, task, job});
}

void Simulator::schedule_next_release(TaskId task, std::int64_t job) {
  const TaskRow& t = rows_[task];
  const Instant next = t.offset + t.period * (job + 1);
  if (next < opt_.duration) push_release(task, job + 1, next);
}

Duration Simulator::exec_time(TaskId task, std::int64_t job) const {
  const TaskRow& t = rows_[task];
  switch (opt_.exec_model) {
    case ExecTimeModel::kWorstCase:
      return t.wcet;
    case ExecTimeModel::kBestCase:
      return t.bcet;
    case ExecTimeModel::kUniform:
      if (t.bcet == t.wcet) return t.wcet;
      return stream_.uniform_duration(t.bcet, t.wcet, task, job,
                                      SimStream::kExec);
    case ExecTimeModel::kCustom:
      break;
  }
  return sample_execution_time(opt_.exec_model, opt_.exec_hook, g_.task(task),
                               task, job, stream_);
}

void Simulator::on_source_release(const SimEvent& ev) {
  const Instant now = ev.time;
  // Source tasks execute in zero time; the token timestamp is the release
  // time (t(J) = r(J), §II-B).
  const TokenSlot tok{ev.task, ev.job, now, now};
  Instant* prov = scratch_prov_.data();
  prov_clear(prov);
  const auto si =
      static_cast<std::size_t>(source_index_[ev.task]);
  prov[si] = now;
  prov[sources_.size() + si] = now;
  prov[2 * sources_.size()] = now;      // lo
  prov[2 * sources_.size() + 1] = now;  // hi
  write_outputs(ev.task, tok, prov);
  ++result_.jobs_finished[ev.task];
  if (opt_.record_trace) {
    result_.trace.tasks[ev.task].jobs.push_back(
        JobRecord{ev.job, now, now, now, {}});
  }
  schedule_next_release(ev.task, ev.job);
}

void Simulator::on_release(const SimEvent& ev) {
  const std::uint32_t idx = ecu_of_task_[ev.task];
  const std::uint32_t slot = alloc_job();
  JobSlot& js = jobs_[slot];
  js.task = ev.task;
  js.job = ev.job;
  js.release = ev.time;
  // Implicit absolute deadline: actual release + period (orders EDF
  // dispatch; inert under the fixed-priority disciplines).
  js.deadline = ev.time + rows_[ev.task].period;
  if (rows_[ev.task].is_let) {
    // LET: inputs are logically read at release.
    read_inputs(ev.task, job_prov_.data() + slot * prov_stride(),
                opt_.record_trace ? &js.reads : nullptr);
    js.has_snapshot = true;
  }
  ecus_[idx].ready.push_back(slot);
  pending_dispatch_.push_back(idx);
  schedule_next_release(ev.task, ev.job);
}

void Simulator::maybe_preempt(std::uint32_t ecu_idx, Instant now) {
  const SchedPolicy policy = ecu_policy_[ecu_idx];
  if (policy == SchedPolicy::kNonPreemptive) return;
  EcuRun& ecu = ecus_[ecu_idx];
  if (!ecu.busy || ecu.ready.empty()) return;
  JobSlot& run = jobs_[ecu.running];
  bool higher_ready = false;
  if (policy == SchedPolicy::kPreemptive) {
    const std::int32_t running_prio = rows_[run.task].priority;
    for (const std::uint32_t s : ecu.ready) {
      if (rows_[jobs_[s].task].priority < running_prio) {
        higher_ready = true;
        break;
      }
    }
  } else {  // kEdf: a strictly earlier absolute deadline preempts
    for (const std::uint32_t s : ecu.ready) {
      if (jobs_[s].deadline < run.deadline) {
        higher_ready = true;
        break;
      }
    }
  }
  if (!higher_ready) return;
  run.remaining -= now - ecu.resumed_at;
  CETA_ASSERT(run.remaining > Duration::zero(),
              "preempting a job that should already have finished");
  ++result_.preemptions[run.task];
  ecu.expected_finish_gen = 0;  // invalidate the outstanding finish
  ecu.ready.push_back(ecu.running);
  ecu.busy = false;
}

void Simulator::dispatch(std::uint32_t ecu_idx, Instant now) {
  EcuRun& ecu = ecus_[ecu_idx];
  CETA_ASSERT(!ecu.busy, "dispatch on a busy ECU");
  if (ecu.ready.empty()) return;
  // Fixed priority: highest priority first (smaller value), ties by task
  // id, then by release (a preempted job resumes before a later
  // instance).  EDF: earliest absolute deadline first, same tie order.
  const bool edf = ecu_policy_[ecu_idx] == SchedPolicy::kEdf;
  auto best = ecu.ready.begin();
  for (auto it = ecu.ready.begin() + 1; it != ecu.ready.end(); ++it) {
    const JobSlot& ja = jobs_[*it];
    const JobSlot& jb = jobs_[*best];
    bool wins = false;
    if (edf) {
      wins = ja.deadline < jb.deadline ||
             (ja.deadline == jb.deadline &&
              (ja.task < jb.task ||
               (ja.task == jb.task && ja.release < jb.release)));
    } else {
      const std::int32_t pa = rows_[ja.task].priority;
      const std::int32_t pb = rows_[jb.task].priority;
      wins = pa < pb ||
             (pa == pb && (ja.task < jb.task ||
                           (ja.task == jb.task && ja.release < jb.release)));
    }
    if (wins) best = it;
  }
  const std::uint32_t slot = *best;
  ecu.ready.erase(best);

  JobSlot& js = jobs_[slot];
  if (!js.started) {
    if (!js.has_snapshot) {
      // Implicit communication: read every input channel at the first
      // start (preemptions do not re-read).
      read_inputs(js.task, job_prov_.data() + slot * prov_stride(),
                  opt_.record_trace ? &js.reads : nullptr);
    }
    js.start = now;
    js.remaining = exec_time(js.task, js.job);
    js.started = true;
  }

  ecu.busy = true;
  ecu.resumed_at = now;
  ecu.expected_finish_gen = ++finish_gen_;
  const Instant finish_at = now + js.remaining;
  ecu.running = slot;
  queue_.push(SimEvent{finish_at, EventKind::kFinish, ecu_idx, seq_++, 0,
                       static_cast<std::int64_t>(ecu.expected_finish_gen)});
}

void Simulator::on_finish(const SimEvent& ev) {
  EcuRun& ecu = ecus_[ev.ecu];
  // Discard finish events invalidated by a preemption.
  if (!ecu.busy ||
      static_cast<std::uint64_t>(ev.job) != ecu.expected_finish_gen) {
    return;
  }
  const std::uint32_t slot = ecu.running;
  JobSlot& js = jobs_[slot];
  const Instant now = ev.time;
  Instant* prov = job_prov_.data() + slot * prov_stride();

  // Implicit tasks write at finish; LET tasks publish at their deadline
  // (or at the finish instant if the deadline was missed, to preserve
  // causality).
  TokenSlot tok{js.task, js.job, js.release, now};
  if (rows_[js.task].is_let) {
    const Instant deadline = js.release + rows_[js.task].period;
    const Instant publish_at = std::max(now, deadline);
    tok.write = publish_at;
    const std::uint32_t ps = alloc_publish();
    publish_slots_[ps] = tok;
    std::copy_n(prov, prov_stride(),
                publish_prov_.data() + ps * prov_stride());
    queue_.push(SimEvent{publish_at, EventKind::kPublish, 0, seq_++, js.task,
                         static_cast<std::int64_t>(ps)});
  } else {
    write_outputs(js.task, tok, prov);
  }

  // Metrics.
  ++result_.jobs_finished[js.task];
  result_.max_response_time[js.task] =
      std::max(result_.max_response_time[js.task], now - js.release);
  if (js.release >= opt_.warmup && !prov_empty(prov)) {
    result_.max_disparity[js.task] =
        std::max(result_.max_disparity[js.task], prov_disparity(prov));
    ++result_.jobs_observed[js.task];
    if (observer_) {
      observer_->on_observed_job(js.task, js.job, js.release, js.start, now,
                                 prov, prov + sources_.size(),
                                 sources_.size());
    }
  }
  if (opt_.record_trace) {
    result_.trace.tasks[js.task].jobs.push_back(JobRecord{
        js.job, js.release, js.start, now, std::move(js.reads)});
  }

  ecu.busy = false;
  ecu.expected_finish_gen = 0;
  pending_dispatch_.push_back(ev.ecu);
  free_job(slot);
}

void Simulator::on_publish(const SimEvent& ev) {
  const auto ps = static_cast<std::uint32_t>(ev.job);
  write_outputs(ev.task, publish_slots_[ps],
                publish_prov_.data() + ps * prov_stride());
  free_publish(ps);
}

// --- run loop ---------------------------------------------------------------

void Simulator::run_core(std::uint64_t seed) {
  reset();
  stream_ = SimStream(seed);
  if (observer_) observer_->on_run_begin(seed);

  // Seed the first release of every task.
  for (TaskId id = 0; id < g_.num_tasks(); ++id) {
    const Task& t = g_.task(id);
    if (t.offset < opt_.duration) push_release(id, 0, t.offset);
  }

  // Two-phase processing per instant: first drain *all* events at the
  // current time (so that every job released at t is visible before any
  // arbitration decision at t — a lower-priority job must not grab the
  // ECU just because its release event was queued first), then dispatch
  // the affected ECUs.  Zero-execution jobs can push fresh finish events
  // at the same instant, hence the middle loop.
  std::uint64_t events_processed = 0;
  while (!queue_.empty()) {
    const Instant now = queue_.peek().time;
    while (!queue_.empty() && queue_.peek().time == now) {
      while (!queue_.empty() && queue_.peek().time == now) {
        const SimEvent ev = queue_.pop();
        ++events_processed;
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
      for (const std::uint32_t idx : pending_dispatch_) {
        maybe_preempt(idx, now);
        if (!ecus_[idx].busy) dispatch(idx, now);
      }
      pending_dispatch_.clear();
    }
  }
  events_run_ = events_processed;
  events_total_ += events_processed;
}

namespace {

void flush_run_metrics(const SimResult& r, std::uint64_t runs,
                       std::uint64_t events) {
  std::uint64_t finished = 0;
  std::uint64_t preempted = 0;
  for (std::size_t id = 0; id < r.jobs_finished.size(); ++id) {
    finished += static_cast<std::uint64_t>(r.jobs_finished[id]);
    preempted += static_cast<std::uint64_t>(r.preemptions[id]);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("sim.runs").add(runs);
  reg.counter("sim.events").add(events);
  reg.counter("sim.jobs_finished").add(finished);
  reg.counter("sim.preemptions").add(preempted);
}

}  // namespace

SimResult Simulator::run(std::uint64_t seed) {
  obs::Span span("sim", "simulator.run");
  span.arg("tasks", static_cast<std::int64_t>(g_.num_tasks()));
  span.arg("duration_ns", opt_.duration.count());
  run_core(seed);
  flush_run_metrics(result_, 1, events_run_);
  return std::move(result_);
}

SimBatchResult Simulator::run_batch(std::uint64_t first_seed,
                                    std::uint64_t replications) {
  obs::Span span("sim", "simulator.run_batch");
  span.arg("replications", static_cast<std::int64_t>(replications));
  const std::size_t n = g_.num_tasks();
  SimBatchResult batch;
  batch.max_disparity.assign(n, Duration::zero());
  batch.jobs_observed.assign(n, 0);
  batch.jobs_finished.assign(n, 0);
  batch.max_response_time.assign(n, Duration::zero());
  batch.preemptions.assign(n, 0);

  std::uint64_t finished = 0;
  std::uint64_t preempted = 0;
  for (std::uint64_t k = 0; k < replications; ++k) {
    run_core(first_seed + k);
    ++batch.replications;
    batch.events += events_run_;
    for (std::size_t i = 0; i < n; ++i) {
      batch.max_disparity[i] =
          std::max(batch.max_disparity[i], result_.max_disparity[i]);
      batch.jobs_observed[i] += result_.jobs_observed[i];
      batch.jobs_finished[i] += result_.jobs_finished[i];
      batch.max_response_time[i] =
          std::max(batch.max_response_time[i], result_.max_response_time[i]);
      batch.preemptions[i] += result_.preemptions[i];
      finished += static_cast<std::uint64_t>(result_.jobs_finished[i]);
      preempted += static_cast<std::uint64_t>(result_.preemptions[i]);
    }
  }
  // Hot loop: flush the registry once per batch (metrics.hpp pattern).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("sim.runs").add(batch.replications);
  reg.counter("sim.events").add(batch.events);
  reg.counter("sim.jobs_finished").add(finished);
  reg.counter("sim.preemptions").add(preempted);
  return batch;
}

}  // namespace ceta::sim
