#include "engine/analysis_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "chain/latency.hpp"
#include "common/error.hpp"
#include "common/interval.hpp"
#include "disparity/dag_dp.hpp"
#include "disparity/pair_kernel.hpp"
#include "graph/algorithms.hpp"
#include "obs/tracer.hpp"

namespace ceta {

namespace {

/// Wall-clock duration for the engine's compute histograms.
Duration elapsed_since(std::chrono::steady_clock::time_point t0) {
  return Duration::ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
}

/// FNV-1a over a byte-sized stream of values.
std::size_t hash_mix(std::size_t seed, std::uint64_t v) {
  seed ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull + (seed << 6) +
          (seed >> 2);
  return seed;
}

}  // namespace

std::size_t AnalysisEngine::ReportKeyHash::operator()(
    const ReportKey& k) const {
  std::size_t h = hash_mix(0, k.task);
  h = hash_mix(h, static_cast<std::uint64_t>(k.method));
  h = hash_mix(h, static_cast<std::uint64_t>(k.hop_method));
  h = hash_mix(h, k.path_cap);
  h = hash_mix(h, static_cast<std::uint64_t>(k.truncation));
  h = hash_mix(h, static_cast<std::uint64_t>(k.keep_pairs));
  h = hash_mix(h, k.top_k);
  h = hash_mix(h, static_cast<std::uint64_t>(k.backend));
  return h;
}

AnalysisEngine::Instruments::Instruments(obs::MetricsRegistry& r)
    : rta_runs(r.counter("engine.rta.runs")),
      chain_set_hits(r.counter("engine.chain_sets.hits")),
      chain_set_misses(r.counter("engine.chain_sets.misses")),
      report_hits(r.counter("engine.reports.hits")),
      report_misses(r.counter("engine.reports.misses")),
      chain_set_stale(r.counter("engine.chain_sets.stale")),
      report_stale(r.counter("engine.reports.stale")),
      mutate_commits(r.counter("engine.mutate.commits")),
      mutate_edits(r.counter("engine.mutate.edits")),
      mutate_dirty_rta(r.counter("engine.mutate.dirty.rta_tasks")),
      mutate_dirty_chain_sets(r.counter("engine.mutate.dirty.chain_sets")),
      mutate_dirty_reports(r.counter("engine.mutate.dirty.reports")),
      rta_refreshed_tasks(r.counter("engine.rta.refreshed_tasks")),
      survived_hits(r.counter("engine.cache.survived_hits")),
      retention_ppm(r.gauge("engine.mutate.retention_ppm")),
      rta_compute(r.histogram("engine.rta.compute")),
      disparity_compute(r.histogram("engine.disparity.compute")) {}

AnalysisEngine::AnalysisEngine(TaskGraph graph, EngineOptions opt)
    : graph_(std::move(graph)), opt_(opt) {
  graph_.validate();
  ecus_ = EcuIndex(graph_);
  chain_set_epoch_.assign(graph_.num_tasks(), 0);
  report_epoch_.assign(graph_.num_tasks(), 0);
}

AnalysisEngine::AnalysisEngine(TaskGraph graph, ResponseTimeMap rtm,
                               EngineOptions opt)
    : graph_(std::move(graph)), opt_(opt) {
  graph_.validate();
  CETA_EXPECTS(rtm.size() == graph_.num_tasks(),
               "AnalysisEngine: response-time map size mismatch");
  external_rtm_ = std::make_unique<ResponseTimeMap>(std::move(rtm));
  ecus_ = EcuIndex(graph_);
  chain_set_epoch_.assign(graph_.num_tasks(), 0);
  report_epoch_.assign(graph_.num_tasks(), 0);
}

AnalysisEngine::~AnalysisEngine() = default;

AnalysisEngine::AnalysisEngine(const AnalysisEngine& other, CloneTag)
    : graph_(other.graph_),
      opt_(other.opt_),
      ecus_(other.ecus_),
      commit_epoch_(other.commit_epoch_),
      chain_set_epoch_(other.chain_set_epoch_),
      report_epoch_(other.report_epoch_),
      report_cache_(other.report_cache_) {
  if (other.rta_) rta_ = std::make_unique<RtaResult>(*other.rta_);
  if (other.external_rtm_) {
    external_rtm_ = std::make_unique<ResponseTimeMap>(*other.external_rtm_);
  }
  rta_dirty_ = other.rta_dirty_;
  // Chain-set entries sit behind unique_ptr for reference stability; each
  // clone gets its own allocation so in-place refreshes never cross engines.
  chain_set_cache_.reserve(other.chain_set_cache_.size());
  for (const auto& [key, entry] : other.chain_set_cache_) {
    chain_set_cache_.emplace(key, std::make_unique<ChainSetEntry>(*entry));
  }
  // Deliberately not copied: metrics_/ins_ (fresh, zeroed registry — cache
  // statistics never bleed across engines) and
  // commit_observer_ (observers are per-engine wiring).
}

std::unique_ptr<AnalysisEngine> AnalysisEngine::clone() const {
  obs::Span span("engine", "clone");
  const std::scoped_lock lock(rta_mutex_, chain_set_mutex_, report_mutex_);
  return std::unique_ptr<AnalysisEngine>(new AnalysisEngine(*this, CloneTag{}));
}

void AnalysisEngine::ensure_rta() const {
  const std::lock_guard<std::mutex> lock(rta_mutex_);
  if (external_rtm_) return;
  if (!rta_) {
    obs::Span span("engine", "rta");
    span.arg("tasks", static_cast<std::int64_t>(graph_.num_tasks()));
    const auto t0 = std::chrono::steady_clock::now();
    rta_ =
        std::make_unique<RtaResult>(analyze_response_times(graph_, opt_.rta));
    ins_.rta_compute.observe(elapsed_since(t0));
    ins_.rta_runs.add();
    rta_dirty_.clear();
    return;
  }
  if (!rta_dirty_.empty()) {
    // Scoped refresh: only the cohorts dirtied since the last query are
    // re-run (bit-identical to a full run, see reanalyze_response_times).
    obs::Span span("engine", "rta_refresh");
    span.arg("tasks", static_cast<std::int64_t>(rta_dirty_.size()));
    const auto t0 = std::chrono::steady_clock::now();
    reanalyze_response_times(graph_, opt_.rta, ecus_, rta_dirty_, *rta_);
    ins_.rta_compute.observe(elapsed_since(t0));
    ins_.rta_refreshed_tasks.add(rta_dirty_.size());
    rta_dirty_.clear();
  }
}

const RtaResult& AnalysisEngine::rta() const {
  CETA_EXPECTS(!external_rtm_,
               "AnalysisEngine::rta: engine adopted an external "
               "response-time map and owns no RtaResult");
  ensure_rta();
  return *rta_;
}

const ResponseTimeMap& AnalysisEngine::response_times() const {
  if (external_rtm_) return *external_rtm_;
  ensure_rta();
  return rta_->response_time;
}

bool AnalysisEngine::schedulable() const {
  if (external_rtm_) {
    for (const Duration r : *external_rtm_) {
      if (r == Duration::max()) return false;
    }
    return true;
  }
  return rta().all_schedulable;
}

void AnalysisEngine::note_survivor(std::uint64_t stamp) const {
  if (commit_epoch_ != 0 && stamp < commit_epoch_) ins_.survived_hits.add();
}

BackwardBounds AnalysisEngine::chain_bounds(const Path& chain,
                                            HopBoundMethod method) const {
  return backward_bounds(graph_, chain, response_times(), method);
}

const std::vector<Path>& AnalysisEngine::chains(TaskId task,
                                                std::size_t path_cap) const {
  return chains_impl(task, path_cap, /*counted=*/true);
}

const std::vector<Path>& AnalysisEngine::chains_impl(TaskId task,
                                                     std::size_t path_cap,
                                                     bool counted) const {
  CETA_EXPECTS(task < graph_.num_tasks(), "AnalysisEngine::chains: bad id");
  const std::uint64_t key =
      static_cast<std::uint64_t>(task) ^ (static_cast<std::uint64_t>(path_cap)
                                          << 32);
  obs::Span span("engine", "chains");
  span.arg("task", static_cast<std::int64_t>(task));
  bool stale = false;
  {
    const std::lock_guard<std::mutex> lock(chain_set_mutex_);
    const auto it = chain_set_cache_.find(key);
    if (it != chain_set_cache_.end()) {
      if (it->second->stamp >= chain_set_epoch_[task]) {
        if (counted) ins_.chain_set_hits.add();
        note_survivor(it->second->stamp);
        span.arg("cache", "hit");
        return it->second->chains;
      }
      ins_.chain_set_stale.add();
      stale = true;
    }
  }
  span.arg("cache", stale ? "stale" : "miss");
  std::vector<Path> set = enumerate_source_chains(graph_, task, path_cap);
  const std::lock_guard<std::mutex> lock(chain_set_mutex_);
  const auto it = chain_set_cache_.find(key);
  if (it == chain_set_cache_.end()) {
    auto entry = std::make_unique<ChainSetEntry>();
    entry->chains = std::move(set);
    entry->stamp = commit_epoch_;
    const auto pos = chain_set_cache_.emplace(key, std::move(entry)).first;
    if (counted) ins_.chain_set_misses.add();
    return pos->second->chains;
  }
  if (it->second->stamp < chain_set_epoch_[task]) {
    // Refresh *in place*: references handed out before the mutation stay
    // valid and observe the updated enumeration (see chains()).
    it->second->chains = std::move(set);
    it->second->stamp = commit_epoch_;
    if (counted) ins_.chain_set_misses.add();
  } else {
    // A concurrent caller filled or refreshed the entry meanwhile; keep
    // the first result (both are identical).
    if (counted) ins_.chain_set_hits.add();
  }
  return it->second->chains;
}

std::vector<TaskId> AnalysisEngine::fusing_tasks() const {
  std::vector<TaskId> out;
  for (TaskId id = 0; id < graph_.num_tasks(); ++id) {
    if (count_source_chains(graph_, id) >= 2) out.push_back(id);
  }
  return out;
}

DisparityReport AnalysisEngine::disparity(TaskId task,
                                          const DisparityOptions& opt) const {
  CETA_EXPECTS(task < graph_.num_tasks(), "analyze_time_disparity: bad task id");
  opt.validate();
  const ReportKey key{task, opt.method, opt.hop_method, opt.path_cap,
                      opt.truncation, opt.keep_pairs,
                      opt.keep_pairs == KeepPairs::kTopK ? opt.top_k : 0,
                      opt.backend};
  obs::Span span("engine", "disparity");
  span.arg("task", static_cast<std::int64_t>(task));
  bool stale = false;
  {
    const std::lock_guard<std::mutex> lock(report_mutex_);
    const auto it = report_cache_.find(key);
    if (it != report_cache_.end()) {
      if (it->second.stamp >= report_epoch_[task]) {
        ins_.report_hits.add();
        note_survivor(it->second.stamp);
        span.arg("cache", "hit");
        return *it->second.value;
      }
      ins_.report_stale.add();
      stale = true;
    }
  }
  span.arg("cache", stale ? "stale" : "miss");
  const auto t0 = std::chrono::steady_clock::now();

  // The routing of analyze_time_disparity_backend, with the pairwise
  // kernel (disparity/pair_kernel.hpp) fed the engine's memoized chain set.
  // The DP reads graph_ and response_times() only — both inputs are
  // covered by report_epoch_.  The chain-set read is uncounted plumbing of
  // this one logical report lookup (see metrics()).
  const ResponseTimeMap& rtm = response_times();
  auto report = std::make_shared<const DisparityReport>(
      route_disparity_backend(graph_, task, rtm, opt, DagDpOptions{}, [&] {
        return pair_kernel_analyze(
            graph_, chains_impl(task, opt.path_cap, /*counted=*/false), rtm,
            opt);
      }));
  if (report->backend == DisparityBackend::kDagDp) {
    span.arg("backend", "dag_dp");
  }

  ins_.disparity_compute.observe(elapsed_since(t0));
  const std::lock_guard<std::mutex> lock(report_mutex_);
  const auto it = report_cache_.find(key);
  if (it == report_cache_.end() || it->second.stamp < report_epoch_[task]) {
    ins_.report_misses.add();
    auto& slot = report_cache_[key];
    slot.value = std::move(report);
    slot.stamp = commit_epoch_;
    return *slot.value;
  }
  // A concurrent caller inserted a fresh entry meanwhile; serve it.
  ins_.report_hits.add();
  return *it->second.value;
}

LatencyReport AnalysisEngine::latency(const Path& chain,
                                      HopBoundMethod method) const {
  const ResponseTimeMap& rtm = response_times();
  LatencyReport r;
  r.backward = chain_bounds(chain, method);
  r.max_data_age = r.backward.wcbt + rtm.at(chain.back());
  r.min_data_age = r.backward.bcbt + graph_.task(chain.back()).bcet;
  r.max_reaction_time = max_reaction_time_bound(graph_, chain, rtm);
  return r;
}

BufferDesign AnalysisEngine::optimize_buffer_pair(const Path& lambda,
                                                  const Path& nu,
                                                  HopBoundMethod method) const {
  return design_buffer(graph_, lambda, nu, response_times(), method);
}

MultiBufferDesign AnalysisEngine::optimize_buffers(
    TaskId task, const DisparityOptions& opt) const {
  obs::Span span("engine", "optimize_buffers");
  span.arg("task", static_cast<std::int64_t>(task));
  const DisparityReport base = disparity(task, opt);
  if (base.truncated) {
    throw CapacityError("optimize_buffers: task '" +
                        graph_.task(task).name +
                        "' has more source chains than path_cap " +
                        std::to_string(opt.path_cap) +
                        "; the buffer design needs the enumerated chains");
  }
  MultiBufferDesign design;
  design.baseline_bound = base.worst_case;
  design.optimized_bound = base.worst_case;
  if (base.chains.size() < 2) return design;

  // Group chains by head channel; a group's window midpoint summary is
  // the mean of its members' (doubled) midpoints under Lemma 1 windows
  // anchored at r(J) = 0.
  struct Group {
    TaskId from;
    TaskId to;
    double sum_m2 = 0.0;
    int members = 0;
  };
  std::map<std::pair<TaskId, TaskId>, Group> groups;
  for (const Path& chain : base.chains) {
    if (chain.size() < 2) continue;  // the task itself is a source
    const BackwardBounds b = chain_bounds(chain, opt.hop_method);
    const Interval window(-b.wcbt, -b.bcbt);
    const auto key = std::make_pair(chain[0], chain[1]);
    Group& grp = groups
                     .try_emplace(key, Group{chain[0], chain[1], 0.0, 0})
                     .first->second;
    grp.sum_m2 += static_cast<double>(window.doubled_midpoint());
    ++grp.members;
  }
  if (groups.size() < 2) return design;

  double target_m2 = 0.0;
  bool first = true;
  for (const auto& [key, grp] : groups) {
    const double m2 = grp.sum_m2 / grp.members;
    if (first || m2 < target_m2) {
      target_m2 = m2;
      first = false;
    }
  }

  TaskGraph buffered = graph_;
  std::vector<ChannelBuffer> channels;
  for (const auto& [key, grp] : groups) {
    CETA_EXPECTS(graph_.channel(grp.from, grp.to).buffer_size == 1,
                 "optimize_buffers: head channel '" +
                     graph_.task(grp.from).name + "->" +
                     graph_.task(grp.to).name + "' already buffered");
    const double m2 = grp.sum_m2 / grp.members;
    const Duration t_head = graph_.task(grp.from).period;
    const auto k = static_cast<std::int64_t>(std::floor(
        (m2 - target_m2) / (2.0 * static_cast<double>(t_head.count()))));
    if (k <= 0) continue;
    ChannelBuffer cb;
    cb.from = grp.from;
    cb.to = grp.to;
    cb.buffer_size = static_cast<int>(k) + 1;
    cb.shift = t_head * k;
    buffered.set_buffer_size(cb.from, cb.to, cb.buffer_size);
    channels.push_back(cb);
  }
  if (channels.empty()) return design;

  // Safe optimized bound: re-analyze the buffered copy with the pair
  // kernel (Lemma 6-aware chain bounds).  FIFO depths change neither
  // releases nor demand, so the WCRT map carries over, nor the chain set,
  // so base.chains is what enumerating the copy would give.  Only the
  // worst case is read.  Keep the design only if it actually helps.
  DisparityOptions reanalysis = opt;
  reanalysis.keep_pairs = KeepPairs::kWorstOnly;
  const Duration optimized =
      pair_kernel_analyze(buffered, base.chains, response_times(), reanalysis)
          .worst_case;
  if (optimized >= design.baseline_bound) return design;
  design.channels = std::move(channels);
  design.optimized_bound = optimized;
  return design;
}

// --- Mutation API ----------------------------------------------------------

void AnalysisEngine::apply_one(const engine::Mutation& m) {
  using engine::MutationKind;
  switch (m.kind) {
    case MutationKind::kPeriod:
      graph_.task(m.task).period = m.period;
      break;
    case MutationKind::kWcetRange: {
      Task& t = graph_.task(m.task);
      t.bcet = m.bcet;
      t.wcet = m.wcet;
      break;
    }
    case MutationKind::kPriority:
      graph_.task(m.task).priority = m.priority;
      break;
    case MutationKind::kBuffer:
      graph_.set_buffer_size(m.from, m.to, m.channel.buffer_size);
      break;
    case MutationKind::kOffset:
      graph_.task(m.task).offset = m.offset;
      break;
    case MutationKind::kAddEdge:
      graph_.add_edge(m.from, m.to, m.channel);
      break;
    case MutationKind::kRemoveEdge:
      graph_.remove_edge(m.from, m.to);
      break;
    case MutationKind::kPolicy:
      graph_.set_policy(m.ecu, m.policy);
      break;
  }
}

void AnalysisEngine::validate_staged(
    const std::vector<engine::Mutation>& edits) const {
  using engine::MutationKind;
  // Final parameters of every edited task after the whole batch
  // (last-write-wins per field, like apply_one in order).
  std::unordered_map<TaskId, Task> finals;
  const auto final_task = [&](TaskId id) -> Task& {
    CETA_EXPECTS(id < graph_.num_tasks(),
                 "AnalysisEngine: mutation names unknown task id " +
                     std::to_string(id));
    return finals.try_emplace(id, graph_.task(id)).first->second;
  };
  for (const engine::Mutation& m : edits) {
    switch (m.kind) {
      case MutationKind::kPeriod:
        final_task(m.task).period = m.period;
        break;
      case MutationKind::kWcetRange: {
        Task& t = final_task(m.task);
        t.bcet = m.bcet;
        t.wcet = m.wcet;
        break;
      }
      case MutationKind::kPriority:
        final_task(m.task).priority = m.priority;
        break;
      case MutationKind::kOffset:
        final_task(m.task).offset = m.offset;
        break;
      case MutationKind::kBuffer:
        CETA_EXPECTS(m.from < graph_.num_tasks() &&
                         m.to < graph_.num_tasks() &&
                         graph_.has_edge(m.from, m.to),
                     "AnalysisEngine::set_buffer: no such edge");
        CETA_EXPECTS(m.channel.buffer_size >= 1,
                     "validate: channel buffer size must be >= 1");
        break;
      case MutationKind::kPolicy:
        // Non-structural; TaskGraph::set_policy cannot throw past this.
        CETA_EXPECTS(m.ecu != kNoEcu,
                     "AnalysisEngine::set_policy: sources occupy no ECU");
        break;
      case MutationKind::kAddEdge:
      case MutationKind::kRemoveEdge:
        CETA_EXPECTS(false, "validate_staged: structural edit in a "
                            "non-structural batch");
    }
  }
  for (const auto& [id, t] : finals) {
    validate_task(t);
    if (graph_.is_source(id)) {
      CETA_EXPECTS(t.wcet == Duration::zero() && t.bcet == Duration::zero(),
                   "validate: source task '" + t.name +
                       "' must have zero execution time");
    }
    if (t.ecu == kNoEcu) continue;
    // Uniqueness against the cohort's *final* priorities, so a batched
    // swap validates while a genuine collision is rejected.
    for (const TaskId other : ecus_.cohort(id)) {
      if (other == id) continue;
      const auto it = finals.find(other);
      const int other_prio =
          it != finals.end() ? it->second.priority : graph_.task(other).priority;
      CETA_EXPECTS(other_prio != t.priority,
                   "validate: duplicate priority " +
                       std::to_string(t.priority) + " on ECU " +
                       std::to_string(t.ecu));
    }
  }
}

void AnalysisEngine::apply_mutations(
    const std::vector<engine::Mutation>& edits) {
  if (edits.empty()) return;
  obs::Span span("engine", "mutate");
  span.arg("edits", static_cast<std::int64_t>(edits.size()));

  if (external_rtm_) {
    for (const engine::Mutation& m : edits) {
      const bool sched_edit = m.kind == engine::MutationKind::kPeriod ||
                              m.kind == engine::MutationKind::kWcetRange ||
                              m.kind == engine::MutationKind::kPriority ||
                              m.kind == engine::MutationKind::kPolicy;
      CETA_EXPECTS(!sched_edit,
                   "AnalysisEngine: scheduling mutations are unavailable "
                   "when the engine adopted an external response-time map "
                   "(the engine cannot refresh it)");
    }
  }

  // Descendant closures of removed-edge heads, on the *pre-commit* graph —
  // removal destroys the very reachability that defines the affected set.
  std::vector<std::vector<TaskId>> removed_closures;
  for (const engine::Mutation& m : edits) {
    if (m.kind == engine::MutationKind::kRemoveEdge) {
      CETA_EXPECTS(m.to < graph_.num_tasks(),
                   "AnalysisEngine::remove_edge: unknown task id");
      removed_closures.push_back(descendants(graph_, m.to));
    }
  }

  // Strong guarantee, two ways.  Structural batches (edge edits) can make
  // the graph cyclic or strand a task, which only full validation of the
  // applied state can detect: apply against a snapshot and restore
  // wholesale on rejection (a snapshot, instead of per-edit undo records,
  // also restores adjacency-list *order*, which enumeration results
  // depend on).  Parameter-only batches are instead validated *before*
  // applying — every invariant they can break is local to the final value
  // of an edited task/edge (validate_staged) — after which apply_one
  // cannot throw, so the O(V) snapshot copy and O(V+E) revalidation are
  // skipped; they otherwise cost more than what a buffer-sweep point
  // re-analyzes.
  const bool structural = std::any_of(
      edits.begin(), edits.end(), [](const engine::Mutation& m) {
        return m.kind == engine::MutationKind::kAddEdge ||
               m.kind == engine::MutationKind::kRemoveEdge;
      });
  if (structural) {
    TaskGraph backup = graph_;
    try {
      for (const engine::Mutation& m : edits) apply_one(m);
      graph_.validate();
    } catch (...) {
      // Capture before restoring: the caller (and a cetad error reply)
      // must report the original validation failure, never anything the
      // restore could substitute for it.
      const std::exception_ptr original = std::current_exception();
      graph_ = std::move(backup);
      std::rethrow_exception(original);
    }
  } else {
    validate_staged(edits);
    for (const engine::Mutation& m : edits) apply_one(m);
  }

  // The injected fault plans the batch without its buffer resizes, whose
  // only footprint is the report dirtying they seed.
  std::vector<engine::Mutation> unbuffered;
  if (opt_.fault_skip_edge_invalidation) {
    unbuffered = edits;
    std::erase_if(unbuffered, [](const engine::Mutation& m) {
      return m.kind == engine::MutationKind::kBuffer;
    });
  }
  const engine::InvalidationPlan plan = engine::plan_invalidation(
      graph_, ecus_, opt_.fault_skip_edge_invalidation ? unbuffered : edits,
      removed_closures);

  {
    // One epoch bump under every cache mutex: lookups either see the
    // pre-commit state or the fully bumped epochs, never a mix.
    const std::scoped_lock all(rta_mutex_, chain_set_mutex_, report_mutex_);
    ++commit_epoch_;
    if (!plan.rta_tasks.empty()) {
      rta_dirty_.insert(rta_dirty_.end(), plan.rta_tasks.begin(),
                        plan.rta_tasks.end());
      std::sort(rta_dirty_.begin(), rta_dirty_.end());
      rta_dirty_.erase(std::unique(rta_dirty_.begin(), rta_dirty_.end()),
                       rta_dirty_.end());
    }
    for (const TaskId t : plan.chain_set_tasks) {
      chain_set_epoch_[t] = commit_epoch_;
    }
    for (const TaskId t : plan.report_tasks) report_epoch_[t] = commit_epoch_;
  }

  ins_.mutate_commits.add();
  ins_.mutate_edits.add(edits.size());
  ins_.mutate_dirty_rta.add(plan.rta_tasks.size());
  ins_.mutate_dirty_chain_sets.add(plan.chain_set_tasks.size());
  ins_.mutate_dirty_reports.add(plan.report_tasks.size());
  span.arg("dirty_reports",
           static_cast<std::int64_t>(plan.report_tasks.size()));

  // Last, outside every cache mutex: queries the observer issues (e.g. the
  // subscription layer recomputing dirtied sinks) see the committed state.
  if (commit_observer_) {
    commit_observer_(CommitInfo{commit_epoch_, plan});
  }
}

void AnalysisEngine::set_commit_observer(CommitObserver observer) {
  commit_observer_ = std::move(observer);
}

void AnalysisEngine::set_period(TaskId task, Duration period) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kPeriod;
  m.task = task;
  m.period = period;
  apply_mutations({m});
}

void AnalysisEngine::set_wcet_range(TaskId task, Duration bcet,
                                    Duration wcet) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kWcetRange;
  m.task = task;
  m.bcet = bcet;
  m.wcet = wcet;
  apply_mutations({m});
}

void AnalysisEngine::set_priority(TaskId task, int priority) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kPriority;
  m.task = task;
  m.priority = priority;
  apply_mutations({m});
}

void AnalysisEngine::set_policy(EcuId ecu, SchedPolicy policy) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kPolicy;
  m.ecu = ecu;
  m.policy = policy;
  apply_mutations({m});
}

void AnalysisEngine::set_buffer(TaskId from, TaskId to, int buffer_size) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kBuffer;
  m.from = from;
  m.to = to;
  m.channel.buffer_size = buffer_size;
  apply_mutations({m});
}

void AnalysisEngine::set_offset(TaskId task, Duration offset) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kOffset;
  m.task = task;
  m.offset = offset;
  apply_mutations({m});
}

void AnalysisEngine::add_edge(TaskId from, TaskId to, ChannelSpec spec) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kAddEdge;
  m.from = from;
  m.to = to;
  m.channel = spec;
  apply_mutations({m});
}

void AnalysisEngine::remove_edge(TaskId from, TaskId to) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kRemoveEdge;
  m.from = from;
  m.to = to;
  apply_mutations({m});
}

AnalysisEngine::Transaction& AnalysisEngine::Transaction::set_period(
    TaskId task, Duration period) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kPeriod;
  m.task = task;
  m.period = period;
  staged_.push_back(m);
  return *this;
}

AnalysisEngine::Transaction& AnalysisEngine::Transaction::set_wcet_range(
    TaskId task, Duration bcet, Duration wcet) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kWcetRange;
  m.task = task;
  m.bcet = bcet;
  m.wcet = wcet;
  staged_.push_back(m);
  return *this;
}

AnalysisEngine::Transaction& AnalysisEngine::Transaction::set_priority(
    TaskId task, int priority) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kPriority;
  m.task = task;
  m.priority = priority;
  staged_.push_back(m);
  return *this;
}

AnalysisEngine::Transaction& AnalysisEngine::Transaction::set_policy(
    EcuId ecu, SchedPolicy policy) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kPolicy;
  m.ecu = ecu;
  m.policy = policy;
  staged_.push_back(m);
  return *this;
}

AnalysisEngine::Transaction& AnalysisEngine::Transaction::set_buffer(
    TaskId from, TaskId to, int buffer_size) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kBuffer;
  m.from = from;
  m.to = to;
  m.channel.buffer_size = buffer_size;
  staged_.push_back(m);
  return *this;
}

AnalysisEngine::Transaction& AnalysisEngine::Transaction::set_offset(
    TaskId task, Duration offset) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kOffset;
  m.task = task;
  m.offset = offset;
  staged_.push_back(m);
  return *this;
}

AnalysisEngine::Transaction& AnalysisEngine::Transaction::add_edge(
    TaskId from, TaskId to, ChannelSpec spec) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kAddEdge;
  m.from = from;
  m.to = to;
  m.channel = spec;
  staged_.push_back(m);
  return *this;
}

AnalysisEngine::Transaction& AnalysisEngine::Transaction::remove_edge(
    TaskId from, TaskId to) {
  engine::Mutation m;
  m.kind = engine::MutationKind::kRemoveEdge;
  m.from = from;
  m.to = to;
  staged_.push_back(m);
  return *this;
}

void AnalysisEngine::Transaction::commit() {
  CETA_EXPECTS(!committed_, "Transaction::commit: already committed");
  committed_ = true;
  engine_.apply_mutations(staged_);
}

obs::MetricsSnapshot AnalysisEngine::metrics() const {
  // Refresh the derived retention gauge: of all lookups that could have
  // been lost to invalidation, the fraction served from surviving entries.
  const std::uint64_t survived =
      static_cast<std::uint64_t>(ins_.survived_hits.value());
  const std::uint64_t stale =
      static_cast<std::uint64_t>(ins_.chain_set_stale.value()) +
      static_cast<std::uint64_t>(ins_.report_stale.value());
  const std::uint64_t denom = survived + stale;
  ins_.retention_ppm.set(
      denom == 0 ? 0
                 : static_cast<std::int64_t>(survived * 1'000'000 / denom));
  return metrics_.snapshot();
}

}  // namespace ceta
