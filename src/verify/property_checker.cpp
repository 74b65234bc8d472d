#include "verify/property_checker.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "chain/backward_bounds.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/buffer_opt.hpp"
#include "disparity/dag_dp.hpp"
#include "disparity/exact.hpp"
#include "disparity/forkjoin.hpp"
#include "disparity/pair_kernel.hpp"
#include "disparity/pairwise.hpp"
#include "engine/analysis_engine.hpp"
#include "explore/explorer.hpp"
#include "graph/algorithms.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/npfp_rta.hpp"
#include "sched/priority.hpp"
#include "sim/backward.hpp"
#include "sim/montecarlo.hpp"
#include "sim/simulator.hpp"
#include "verify/shrink.hpp"
#include "waters/generator.hpp"

namespace ceta::verify {

namespace {

constexpr const char* kPropertyNames[kNumProperties] = {
    "engine_matches_free", "bounds_ordered",
    "sdiff_leq_pdiff",     "sim_within_bound",
    "backward_in_bounds",  "exact_within_bound",
    "exact_matches_sim",   "buffered_shift",
    "buffer_design_consistent", "multi_buffer_safe",
    "pair_kernel_matches_reference", "incremental_matches_fresh",
    "dag_dp_matches_enumeration", "montecarlo_within_bounds",
    "explored_configs_revalidate", "rta_policy_matches_sim",
    "mixed_policy_disparity_within_bounds"};

constexpr Property kAllProperties[kNumProperties] = {
    Property::kEngineMatchesFree,
    Property::kBoundsOrdered,
    Property::kSdiffLeqPdiff,
    Property::kSimWithinBound,
    Property::kBackwardInBounds,
    Property::kExactWithinBound,
    Property::kExactMatchesSim,
    Property::kBufferedShift,
    Property::kBufferDesignConsistent,
    Property::kMultiBufferSafe,
    Property::kPairKernelMatchesReference,
    Property::kIncrementalMatchesFresh,
    Property::kDagDpMatchesEnumeration,
    Property::kMonteCarloWithinBounds,
    Property::kExploredConfigsRevalidate,
    Property::kRtaPolicyMatchesSim,
    Property::kMixedPolicyDisparityWithinBounds};

std::string dur(Duration d) { return std::to_string(d.count()) + "ns"; }

std::string chain_str(const TaskGraph& g, const Path& c) {
  std::string s;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i) s += "->";
    s += g.task(c[i]).name;
  }
  return s;
}

PropertyOutcome holds() { return {}; }

PropertyOutcome violated(std::string detail) {
  PropertyOutcome out;
  out.status = PropertyOutcome::Status::kViolated;
  out.detail = std::move(detail);
  return out;
}

PropertyOutcome skipped(std::string why, bool capacity = false) {
  PropertyOutcome out;
  out.status = PropertyOutcome::Status::kSkipped;
  out.detail = std::move(why);
  out.capacity_skip = capacity;
  return out;
}

/// Shared deterministic inputs of one property evaluation.
struct Inputs {
  const TaskGraph& g;
  TaskId task;
  const ResponseTimeMap& rtm;
  const std::vector<Path>& chains;
  const ProbeConfig& cfg;
};

/// The injected off-by-one: one head period of the analyzed chain set,
/// the largest term a hop-bound derivation could plausibly drop.
Duration fault_delta(const Inputs& in) {
  if (in.cfg.fault != FaultInjection::kDropHeadPeriod) return Duration::zero();
  Duration d = Duration::zero();
  for (const Path& c : in.chains) {
    d = std::max(d, in.g.task(c.front()).period);
  }
  return d;
}

bool head_channel_unbuffered(const TaskGraph& g, const Path& c) {
  return c.size() < 2 || g.channel(c[0], c[1]).buffer_size == 1;
}

bool chain_unbuffered(const TaskGraph& g, const Path& c) {
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    if (g.channel(c[i], c[i + 1]).buffer_size != 1) return false;
  }
  return true;
}

DisparityOptions disparity_options(const Inputs& in, DisparityMethod m) {
  DisparityOptions opt;
  opt.method = m;
  opt.path_cap = in.cfg.path_cap;
  return opt;
}

/// Simulation warm-up after which every backward chain and FIFO window of
/// `task` is in steady state: the deepest analytic backward span plus the
/// buffer-fill horizon (exact_warmup_horizon covers (buffer+1)·T per hop).
Duration sim_warmup(const Inputs& in) {
  Duration w = Duration::zero();
  for (const Path& c : in.chains) {
    w = std::max(w, backward_bounds(in.g, c, in.rtm).wcbt);
  }
  return w + exact_warmup_horizon(in.g, in.task, in.cfg.path_cap);
}

/// Estimate the job count before simulating: shrink candidates can carry
/// microsecond periods under the same fixed measurement window, which
/// would mean 1e8+ jobs (minutes of CPU, gigabytes of trace) for a
/// candidate that is about to be discarded anyway.  Past the cap this is
/// a capacity skip, and max_jobs backstops the estimate.
void guard_sim_jobs(const TaskGraph& g, const ProbeConfig& cfg,
                    Duration duration, std::uint64_t replications) {
  std::uint64_t estimated_jobs = 0;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const std::int64_t period = std::max<std::int64_t>(
        std::int64_t{1}, g.task(id).period.count());
    estimated_jobs +=
        (static_cast<std::uint64_t>(duration.count() / period) + 1) *
        replications;
    if (estimated_jobs > cfg.max_sim_jobs) {
      throw CapacityError(
          "verify: estimated simulation job count exceeds max_sim_jobs");
    }
  }
}

SimResult run_sim(const TaskGraph& g, const ProbeConfig& cfg, Duration warmup,
                  Duration duration, bool record_trace) {
  guard_sim_jobs(g, cfg, duration, 1);
  SimOptions sopt;
  sopt.duration = duration;
  sopt.warmup = warmup;
  sopt.seed = cfg.sim_seed;
  sopt.exec_model = ExecTimeModel::kUniform;
  sopt.record_trace = record_trace;
  sopt.max_jobs = cfg.max_sim_jobs;
  sim::Simulator simulator(g, sopt);
  return simulator.run();
}

// ---------------------------------------------------------------------------
// Property implementations.  Each recomputes what it needs from the graph
// alone so the shrinker (and fixture replays) evaluate the identical check.

PropertyOutcome check_engine_matches_free(const Inputs& in) {
  const AnalysisEngine engine{in.g};
  if (engine.response_times() != in.rtm) {
    return violated("engine response_times() != analyze_response_times()");
  }
  for (const Path& c : in.chains) {
    const BackwardBounds e = engine.chain_bounds(c);
    const BackwardBounds f = backward_bounds(in.g, c, in.rtm);
    if (e.wcbt != f.wcbt || e.bcbt != f.bcbt) {
      return violated("engine chain_bounds differ on " + chain_str(in.g, c) +
                      ": engine [" + dur(e.bcbt) + ", " + dur(e.wcbt) +
                      "] vs free [" + dur(f.bcbt) + ", " + dur(f.wcbt) + "]");
    }
    const Duration he =
        hop_bound(engine.graph(), c[0], c[1], engine.response_times(),
                  HopBoundMethod::kNonPreemptive);
    const Duration hf =
        hop_bound(in.g, c[0], c[1], in.rtm, HopBoundMethod::kNonPreemptive);
    if (he != hf) {
      return violated("engine hop(" + in.g.task(c[0]).name + ", " +
                      in.g.task(c[1]).name + ") = " + dur(he) +
                      " != free " + dur(hf));
    }
  }
  for (const DisparityMethod m :
       {DisparityMethod::kIndependent, DisparityMethod::kForkJoin}) {
    const DisparityOptions dopt = disparity_options(in, m);
    const DisparityReport re = engine.disparity(in.task, dopt);
    const DisparityReport rf =
        analyze_time_disparity(in.g, in.task, in.rtm, dopt);
    if (re.worst_case != rf.worst_case || re.pairs.size() != rf.pairs.size()) {
      return violated(std::string("engine disparity differs (") +
                      (m == DisparityMethod::kIndependent ? "P" : "S") +
                      "-diff): engine " + dur(re.worst_case) + " vs free " +
                      dur(rf.worst_case));
    }
    for (std::size_t i = 0; i < re.pairs.size(); ++i) {
      if (re.pairs[i].bound != rf.pairs[i].bound) {
        return violated("engine pair bound " + std::to_string(i) +
                        " differs: " + dur(re.pairs[i].bound) + " vs " +
                        dur(rf.pairs[i].bound));
      }
    }
  }
  const Path& l = in.chains[0];
  const Path& n = in.chains[1];
  if (head_channel_unbuffered(in.g, l) && head_channel_unbuffered(in.g, n)) {
    const BufferDesign de = engine.optimize_buffer_pair(l, n);
    const BufferDesign df = design_buffer(in.g, l, n, in.rtm);
    if (de.buffer_on_lambda != df.buffer_on_lambda ||
        de.buffer_size != df.buffer_size || de.shift != df.shift ||
        de.baseline_bound != df.baseline_bound ||
        de.optimized_bound != df.optimized_bound) {
      return violated("engine optimize_buffer_pair != design_buffer");
    }
  }
  bool all_heads_plain = true;
  for (const Path& c : in.chains) {
    all_heads_plain = all_heads_plain && head_channel_unbuffered(in.g, c);
  }
  if (all_heads_plain) {
    // The design's two bounds must be what the analyzer computes on the
    // unbuffered graph and on a copy carrying the designed buffers.
    const DisparityOptions dopt =
        disparity_options(in, DisparityMethod::kForkJoin);
    const MultiBufferDesign me = engine.optimize_buffers(in.task, dopt);
    const Duration base =
        analyze_time_disparity(in.g, in.task, in.rtm, dopt).worst_case;
    TaskGraph buffered = in.g;
    apply_multi_buffer_design(buffered, me);
    const Duration opt =
        me.channels.empty()
            ? base
            : analyze_time_disparity(buffered, in.task, in.rtm, dopt)
                  .worst_case;
    if (me.baseline_bound != base || me.optimized_bound != opt) {
      return violated("engine optimize_buffers bounds [" +
                      dur(me.baseline_bound) + " -> " +
                      dur(me.optimized_bound) + "] != analyzer [" +
                      dur(base) + " -> " + dur(opt) + "]");
    }
  }
  return holds();
}

PropertyOutcome check_bounds_ordered(const Inputs& in) {
  const Duration delta = fault_delta(in);
  for (const Path& c : in.chains) {
    const BackwardBounds bb = backward_bounds(in.g, c, in.rtm);
    const Duration w = bb.wcbt - delta;
    if (bb.bcbt > w) {
      return violated("B(π) = " + dur(bb.bcbt) + " > W(π) = " + dur(w) +
                      " on chain " + chain_str(in.g, c));
    }
  }
  return holds();
}

PropertyOutcome check_sdiff_leq_pdiff(const Inputs& in) {
  const Duration pdiff =
      analyze_time_disparity(in.g, in.task, in.rtm,
                             disparity_options(in, DisparityMethod::kIndependent))
          .worst_case;
  const Duration sdiff =
      analyze_time_disparity(in.g, in.task, in.rtm,
                             disparity_options(in, DisparityMethod::kForkJoin))
          .worst_case;
  if (sdiff > pdiff) {
    return violated("S-diff " + dur(sdiff) + " > P-diff " + dur(pdiff));
  }
  return holds();
}

PropertyOutcome check_sim_within_bound(const Inputs& in) {
  const Duration warmup = sim_warmup(in);
  const Duration horizon = warmup + in.cfg.sim_window;
  if (horizon > in.cfg.max_sim_horizon) {
    return skipped("simulation horizon exceeds max_sim_horizon");
  }
  const Duration bound =
      analyze_time_disparity(in.g, in.task, in.rtm,
                             disparity_options(in, DisparityMethod::kForkJoin))
          .worst_case -
      fault_delta(in);
  const SimResult res = run_sim(in.g, in.cfg, warmup, horizon, false);
  if (res.max_disparity[in.task] > bound) {
    return violated("simulated disparity " + dur(res.max_disparity[in.task]) +
                    " > S-diff bound " + dur(bound) + " (seed " +
                    std::to_string(in.cfg.sim_seed) + ")");
  }
  return holds();
}

PropertyOutcome check_montecarlo_within_bounds(const Inputs& in) {
  const Duration warmup = sim_warmup(in);
  // Several short seeded replications instead of one long run: the fleet
  // explores distinct jitter/execution interleavings per probe while the
  // total simulated time stays comparable to the single-run properties.
  constexpr std::uint64_t kReplications = 4;
  const Duration window = std::max(Duration::ms(50), in.cfg.sim_window / 8);
  const Duration horizon = warmup + window;
  if (horizon > in.cfg.max_sim_horizon) {
    return skipped("simulation horizon exceeds max_sim_horizon");
  }
  guard_sim_jobs(in.g, in.cfg, horizon, kReplications);
  const Duration bound =
      analyze_time_disparity(in.g, in.task, in.rtm,
                             disparity_options(in, DisparityMethod::kForkJoin))
          .worst_case -
      fault_delta(in);

  sim::MonteCarloOptions mopt;
  mopt.sim.duration = horizon;
  mopt.sim.warmup = warmup;
  mopt.sim.exec_model = ExecTimeModel::kUniform;
  mopt.sim.max_jobs = in.cfg.max_sim_jobs;
  mopt.first_seed = in.cfg.sim_seed;
  mopt.replications = kReplications;
  // Single-threaded in the probe (thread-count invariance of the driver
  // is pinned separately in tests); keeps the smoke run's CPU budget flat.
  mopt.num_threads = 1;
  mopt.observed = {in.task};
  mopt.bounds = {bound};
  if (in.cfg.fault == FaultInjection::kCorruptMcSamples) {
    mopt.fault_scale_samples = 1000;
  }
  const sim::MonteCarloResult mc = run_monte_carlo(in.g, mopt);
  if (!mc.all_within_bounds) {
    const sim::TaskMonteCarlo& t = mc.tasks.front();
    return violated(
        "monte-carlo disparity sample " + dur(t.worst_sample) +
        " > S-diff bound " + dur(t.bound) + " (" +
        std::to_string(t.bound_violations) + " violating samples over " +
        std::to_string(mc.replications) + " replications, first_seed " +
        std::to_string(in.cfg.sim_seed) + ")");
  }
  return holds();
}

PropertyOutcome check_backward_in_bounds(const Inputs& in) {
  const Duration warmup = sim_warmup(in);
  const Duration horizon = warmup + in.cfg.sim_window;
  if (horizon > in.cfg.max_sim_horizon) {
    return skipped("simulation horizon exceeds max_sim_horizon");
  }
  const Duration delta = fault_delta(in);
  const SimResult res = run_sim(in.g, in.cfg, warmup, horizon, true);
  for (const Path& c : in.chains) {
    // Lemmas 4/5 bound plain (register-channel) chains; FIFO windows are
    // the buffered_shift property's business.
    if (!chain_unbuffered(in.g, c)) continue;
    const BackwardBounds bb = backward_bounds(in.g, c, in.rtm);
    const Duration w = bb.wcbt - delta;
    const BackwardMeasurement m =
        measured_backward_times(in.g, res.trace, c, warmup);
    for (const Duration len : m.lengths) {
      if (len < bb.bcbt || len > w) {
        return violated("measured backward time " + dur(len) +
                        " outside [B, W] = [" + dur(bb.bcbt) + ", " + dur(w) +
                        "] on chain " + chain_str(in.g, c));
      }
    }
  }
  return holds();
}

/// LET twin of the instance: identical graph with every task flipped to
/// LET communication, making the exact oracle applicable.
TaskGraph let_twin(const TaskGraph& g) {
  TaskGraph t = g;
  t.set_comm_semantics(CommSemantics::kLet);
  return t;
}

bool closure_has_jitter(const TaskGraph& g, TaskId task) {
  for (const TaskId id : ancestors(g, task)) {
    if (g.task(id).jitter != Duration::zero()) return true;
  }
  return false;
}

PropertyOutcome check_exact_within_bound(const Inputs& in) {
  if (closure_has_jitter(in.g, in.task)) {
    return skipped("exact oracle needs a jitter-free closure");
  }
  const TaskGraph let = let_twin(in.g);
  const RtaResult rta = analyze_response_times(let);
  if (!rta.all_schedulable) return skipped("LET twin unschedulable");
  const Duration bound =
      analyze_time_disparity(let, in.task, rta.response_time,
                             disparity_options(in, DisparityMethod::kForkJoin))
          .worst_case -
      fault_delta(in);
  const ExactLetResult exact =
      exact_let_disparity(let, in.task, in.cfg.path_cap, in.cfg.max_releases);
  if (exact.worst_disparity > bound) {
    return violated("exact LET disparity " + dur(exact.worst_disparity) +
                    " > S-diff bound " + dur(bound) + " (worst release " +
                    dur(exact.worst_release) + ")");
  }
  return holds();
}

PropertyOutcome check_exact_matches_sim(const Inputs& in) {
  if (closure_has_jitter(in.g, in.task)) {
    return skipped("exact oracle needs a jitter-free closure");
  }
  const TaskGraph let = let_twin(in.g);
  const RtaResult rta = analyze_response_times(let);
  // LET publishes fire at the deadline only if every closure job finishes
  // by it; otherwise the run-time behavior legitimately diverges from the
  // oracle's arithmetic.
  if (!rta.all_schedulable) return skipped("LET twin unschedulable");

  std::vector<std::int64_t> periods;
  for (const TaskId id : ancestors(let, in.task)) {
    periods.push_back(let.task(id).period.count());
  }
  const Duration hyper = hyperperiod(periods.data(), periods.size());
  const Task& analyzed = let.task(in.task);
  if (static_cast<std::size_t>(floor_div(hyper, analyzed.period)) >
      in.cfg.max_releases) {
    return skipped("hyperperiod spans too many releases", /*capacity=*/true);
  }
  const Duration warmup =
      exact_warmup_horizon(let, in.task, in.cfg.path_cap) + hyper;
  // One extra hyperperiod of measurement covers every steady-state phase
  // the oracle scans, plus one analyzed period of slack for the release
  // at the window edge.
  const Duration horizon = warmup + hyper + analyzed.period;
  if (horizon > in.cfg.max_sim_horizon) {
    return skipped("simulation horizon exceeds max_sim_horizon");
  }

  const ExactLetResult exact =
      exact_let_disparity(let, in.task, in.cfg.path_cap, in.cfg.max_releases);
  const SimResult res = run_sim(let, in.cfg, warmup, horizon, false);
  if (res.max_disparity[in.task] != exact.worst_disparity) {
    return violated("LET simulation max disparity " +
                    dur(res.max_disparity[in.task]) + " != exact oracle " +
                    dur(exact.worst_disparity));
  }
  return holds();
}

PropertyOutcome check_buffered_shift(const Inputs& in) {
  for (const Path& c : in.chains) {
    if (!head_channel_unbuffered(in.g, c)) continue;
    const BackwardBounds base = backward_bounds(in.g, c, in.rtm);
    const Duration t_head = in.g.task(c.front()).period;
    for (const int n : {2, 3}) {
      const BackwardBounds b = buffered_backward_bounds(in.g, c, in.rtm, n);
      const Duration shift = t_head * (n - 1);
      if (b.wcbt != base.wcbt + shift || b.bcbt != base.bcbt + shift) {
        return violated("Lemma 6 shift mismatch on " + chain_str(in.g, c) +
                        " (n=" + std::to_string(n) + "): buffered [" +
                        dur(b.bcbt) + ", " + dur(b.wcbt) + "] vs base+" +
                        dur(shift));
      }
    }
  }
  return holds();
}

PropertyOutcome check_buffer_design_consistent(const Inputs& in) {
  const Path& l = in.chains[0];
  const Path& n = in.chains[1];
  if (!head_channel_unbuffered(in.g, l) || !head_channel_unbuffered(in.g, n)) {
    return skipped("head channel already buffered");
  }
  const BufferDesign d = design_buffer(in.g, l, n, in.rtm);
  if (d.buffer_size < 1) {
    return violated("designed buffer size " + std::to_string(d.buffer_size) +
                    " < 1");
  }
  if (d.shift < Duration::zero() || d.optimized_bound > d.baseline_bound) {
    return violated("design raises the bound: optimized " +
                    dur(d.optimized_bound) + " vs baseline " +
                    dur(d.baseline_bound));
  }
  if (d.optimized_bound != d.baseline_bound - d.shift) {
    return violated("Theorem 3 arithmetic broken: optimized " +
                    dur(d.optimized_bound) + " != baseline " +
                    dur(d.baseline_bound) + " - shift " + dur(d.shift));
  }
  if (d.buffer_size == 1) {
    if (d.shift != Duration::zero()) {
      return violated("trivial design (size 1) with nonzero shift " +
                      dur(d.shift));
    }
  } else {
    const Path& chosen = d.buffer_on_lambda ? l : n;
    if (chosen.size() < 2 || d.from != chosen[0] || d.to != chosen[1]) {
      return violated("buffered channel is not the chosen chain's head hop");
    }
    if (d.shift != in.g.task(d.from).period * (d.buffer_size - 1)) {
      return violated("shift " + dur(d.shift) + " != (n-1)·T(head) for n=" +
                      std::to_string(d.buffer_size));
    }
  }
  return holds();
}

PropertyOutcome check_multi_buffer_safe(const Inputs& in) {
  for (const Path& c : in.chains) {
    if (!head_channel_unbuffered(in.g, c)) {
      return skipped("head channel already buffered");
    }
  }
  const DisparityOptions dopt =
      disparity_options(in, DisparityMethod::kForkJoin);
  const MultiBufferDesign md =
      AnalysisEngine(in.g, in.rtm).optimize_buffers(in.task, dopt);
  if (md.optimized_bound > md.baseline_bound) {
    return violated("multi-buffer design raises the bound: " +
                    dur(md.optimized_bound) + " > " + dur(md.baseline_bound));
  }
  const Duration base =
      analyze_time_disparity(in.g, in.task, in.rtm, dopt).worst_case;
  if (md.baseline_bound != base) {
    return violated("multi-buffer baseline " + dur(md.baseline_bound) +
                    " != analyzer bound " + dur(base));
  }
  if (md.channels.empty()) return holds();

  TaskGraph buffered = in.g;
  apply_multi_buffer_design(buffered, md);
  // FIFO sizing does not change release times or execution demand, so the
  // RTA map carries over to the buffered twin unchanged.
  const Duration re =
      analyze_time_disparity(buffered, in.task, in.rtm, dopt).worst_case;
  if (re != md.optimized_bound) {
    return violated("re-analysis of buffered graph " + dur(re) +
                    " != designed optimized bound " + dur(md.optimized_bound));
  }
  const std::vector<Path> bchains =
      enumerate_source_chains(buffered, in.task, in.cfg.path_cap);
  const Inputs bin{buffered, in.task, in.rtm, bchains, in.cfg};
  const Duration warmup = sim_warmup(bin);
  const Duration horizon = warmup + in.cfg.sim_window;
  if (horizon > in.cfg.max_sim_horizon) {
    return skipped("simulation horizon exceeds max_sim_horizon");
  }
  const SimResult res = run_sim(buffered, in.cfg, warmup, horizon, false);
  if (res.max_disparity[in.task] > md.optimized_bound) {
    return violated("buffered simulation disparity " +
                    dur(res.max_disparity[in.task]) +
                    " > optimized bound " + dur(md.optimized_bound));
  }
  return holds();
}

PropertyOutcome check_pair_kernel_matches_reference(const Inputs& in) {
  // The kernel promises *bit-identical* reports, so every field of every
  // pair is compared, at every method × truncation × keep_pairs
  // combination (18 report pairs per draw).
  for (const DisparityMethod m :
       {DisparityMethod::kIndependent, DisparityMethod::kForkJoin}) {
    for (const JointTruncation tr : {JointTruncation::kAuto,
                                     JointTruncation::kAlways,
                                     JointTruncation::kNever}) {
      for (const KeepPairs kp :
           {KeepPairs::kAll, KeepPairs::kWorstOnly, KeepPairs::kTopK}) {
        DisparityOptions opt = disparity_options(in, m);
        opt.truncation = tr;
        opt.keep_pairs = kp;
        opt.top_k = 3;
        const DisparityReport ref =
            analyze_time_disparity(in.g, in.task, in.rtm, opt);
        const DisparityReport ker =
            analyze_time_disparity_kernel(in.g, in.task, in.rtm, opt);
        const std::string combo =
            std::string(m == DisparityMethod::kIndependent ? "P" : "S") +
            "-diff/trunc=" + std::to_string(static_cast<int>(tr)) +
            "/keep=" + std::to_string(static_cast<int>(kp));
        if (ker.worst_case != ref.worst_case) {
          return violated("pair kernel worst_case " + dur(ker.worst_case) +
                          " != reference " + dur(ref.worst_case) + " at " +
                          combo);
        }
        if (ker.chains != ref.chains) {
          return violated("pair kernel chain set differs at " + combo);
        }
        if (ker.pairs.size() != ref.pairs.size()) {
          return violated("pair kernel keeps " +
                          std::to_string(ker.pairs.size()) + " pairs vs " +
                          std::to_string(ref.pairs.size()) + " at " + combo);
        }
        for (std::size_t i = 0; i < ker.pairs.size(); ++i) {
          if (ker.pairs[i].chain_a != ref.pairs[i].chain_a ||
              ker.pairs[i].chain_b != ref.pairs[i].chain_b ||
              ker.pairs[i].bound != ref.pairs[i].bound) {
            return violated(
                "pair kernel pair " + std::to_string(i) + " (" +
                std::to_string(ker.pairs[i].chain_a) + "," +
                std::to_string(ker.pairs[i].chain_b) + ") " +
                dur(ker.pairs[i].bound) + " != reference (" +
                std::to_string(ref.pairs[i].chain_a) + "," +
                std::to_string(ref.pairs[i].chain_b) + ") " +
                dur(ref.pairs[i].bound) + " at " + combo);
          }
        }
      }
    }
  }
  return holds();
}

// --- incremental_matches_fresh ---------------------------------------------

/// Field-wise comparison of a (possibly mutated) engine against the free
/// functions on its *current* graph — exactly what a freshly constructed
/// engine would compute.  `when` labels the mutation-script step.
std::optional<std::string> engine_fresh_divergence(const AnalysisEngine& e,
                                                   TaskId task,
                                                   const ProbeConfig& cfg,
                                                   const std::string& when) {
  const TaskGraph& g = e.graph();
  const RtaResult fresh = analyze_response_times(g, e.options().rta);
  if (e.response_times() != fresh.response_time) {
    return "response_times diverge from fresh RTA " + when;
  }
  // An edit may leave the graph unschedulable (e.g. a priority swap); the
  // WCRT-map parity above is then the whole contract — backward/disparity
  // bounds are undefined without finite WCRTs.
  if (!fresh.all_schedulable) return std::nullopt;
  for (const Edge& edge : g.edges()) {
    const Duration he = hop_bound(g, edge.from, edge.to, e.response_times(),
                                  HopBoundMethod::kNonPreemptive);
    const Duration hf = hop_bound(g, edge.from, edge.to, fresh.response_time,
                                  HopBoundMethod::kNonPreemptive);
    if (he != hf) {
      return "hop(" + g.task(edge.from).name + ", " + g.task(edge.to).name +
             ") = " + dur(he) + " != fresh " + dur(hf) + " " + when;
    }
  }
  const std::vector<Path> chains =
      enumerate_source_chains(g, task, cfg.path_cap);
  for (const Path& c : chains) {
    const BackwardBounds be = e.chain_bounds(c);
    const BackwardBounds bf = backward_bounds(g, c, fresh.response_time);
    if (be.wcbt != bf.wcbt || be.bcbt != bf.bcbt) {
      return "chain_bounds diverge on " + chain_str(g, c) + " " + when +
             ": engine [" + dur(be.bcbt) + ", " + dur(be.wcbt) +
             "] vs fresh [" + dur(bf.bcbt) + ", " + dur(bf.wcbt) + "]";
    }
  }
  if (chains.size() >= 2) {
    for (const DisparityMethod m :
         {DisparityMethod::kIndependent, DisparityMethod::kForkJoin}) {
      DisparityOptions dopt;
      dopt.method = m;
      dopt.path_cap = cfg.path_cap;
      const DisparityReport re = e.disparity(task, dopt);
      const DisparityReport rf =
          analyze_time_disparity(g, task, fresh.response_time, dopt);
      if (re.worst_case != rf.worst_case || re.chains != rf.chains ||
          re.pairs.size() != rf.pairs.size()) {
        return std::string("disparity (") +
               (m == DisparityMethod::kIndependent ? "P" : "S") +
               "-diff) diverges " + when + ": engine " + dur(re.worst_case) +
               " vs fresh " + dur(rf.worst_case);
      }
      for (std::size_t i = 0; i < re.pairs.size(); ++i) {
        if (re.pairs[i].chain_a != rf.pairs[i].chain_a ||
            re.pairs[i].chain_b != rf.pairs[i].chain_b ||
            re.pairs[i].bound != rf.pairs[i].bound) {
          return "disparity pair " + std::to_string(i) + " diverges " + when;
        }
      }
    }
  }
  return std::nullopt;
}

PropertyOutcome check_incremental_matches_fresh(const Inputs& in) {
  EngineOptions eopt;
  eopt.rta = RtaOptions{};
  eopt.fault_skip_edge_invalidation =
      in.cfg.fault == FaultInjection::kSkipInvalidation;
  AnalysisEngine e(in.g, eopt);

  // Warm every cache layer so the script exercises invalidation of live
  // entries, not cold recomputation.
  (void)e.rta();
  (void)e.chains(in.task, in.cfg.path_cap);
  for (const DisparityMethod m :
       {DisparityMethod::kIndependent, DisparityMethod::kForkJoin}) {
    (void)e.disparity(in.task, disparity_options(in, m));
  }

  std::optional<std::string> diverged;
  const auto compare = [&](const char* when) {
    if (!diverged) diverged = engine_fresh_divergence(e, in.task, in.cfg, when);
    return diverged.has_value();
  };

  // Step 1: FIFO resize of λ₀'s head channel (§9 row "buffer"); under
  // kSkipInvalidation this is the step that must trip — the stale
  // disparity report misses the Lemma 6 shift (n−1)·T(head) > 0.
  {
    const Path& c = in.chains[0];
    const int old_size = in.g.channel(c[0], c[1]).buffer_size;
    e.set_buffer(c[0], c[1], old_size + 1);
    if (compare("after buffer resize")) return violated(*diverged);
    e.set_buffer(c[0], c[1], old_size);
    if (compare("after buffer revert")) return violated(*diverged);
  }

  // Step 2: WCET decrease on the analyzed task (§9 row "WCET").
  {
    const Task& t = e.graph().task(in.task);
    const Duration bcet = t.bcet;
    const Duration wcet = t.wcet;
    const Duration new_wcet = bcet + (wcet - bcet) / 2;
    if (new_wcet != wcet) {
      e.set_wcet_range(in.task, bcet, new_wcet);
      if (compare("after wcet decrease")) return violated(*diverged);
      e.set_wcet_range(in.task, bcet, wcet);
      if (compare("after wcet revert")) return violated(*diverged);
    }
  }

  // Step 3: period doubling on ν₀'s source (§9 row "period"; lengthening
  // keeps offset/jitter admissible and can only lower utilization).
  {
    const TaskId head = in.chains[1].front();
    const Duration period = e.graph().task(head).period;
    e.set_period(head, period * 2);
    if (compare("after period doubling")) return violated(*diverged);
    e.set_period(head, period);
    if (compare("after period revert")) return violated(*diverged);
  }

  // Step 4: priority swap of two same-ECU tasks, batched as one
  // Transaction (only jointly valid — each half alone collides).
  {
    TaskId a = 0, b = 0;
    bool found = false;
    const TaskGraph& g = e.graph();
    for (TaskId i = 0; i < g.num_tasks() && !found; ++i) {
      if (g.is_source(i)) continue;
      for (TaskId j = i + 1; j < g.num_tasks() && !found; ++j) {
        if (g.is_source(j) || g.task(j).ecu != g.task(i).ecu) continue;
        a = i;
        b = j;
        found = true;
      }
    }
    if (found) {
      const int pa = g.task(a).priority;
      const int pb = g.task(b).priority;
      AnalysisEngine::Transaction txn(e);
      txn.set_priority(a, pb).set_priority(b, pa);
      txn.commit();
      if (compare("after priority swap")) return violated(*diverged);
      AnalysisEngine::Transaction back(e);
      back.set_priority(a, pa).set_priority(b, pb);
      back.commit();
      if (compare("after priority swap revert")) return violated(*diverged);
    }
  }

  // Step 5: offset nudge on λ₀'s source (§9 row "offset": invalidates
  // nothing; the commit must still leave every cache coherent).
  {
    const TaskId head = in.chains[0].front();
    const Duration old_offset = e.graph().task(head).offset;
    e.set_offset(head, e.graph().task(head).period / 2);
    if (compare("after offset nudge")) return violated(*diverged);
    e.set_offset(head, old_offset);
    if (compare("after offset revert")) return violated(*diverged);
  }

  // Step 6: structural edit — add a fresh source→task edge, then remove
  // it (§9 rows "add edge" / "remove edge"; removal exercises the
  // pre-commit descendant closure).
  {
    const TaskGraph& g = e.graph();
    TaskId u = static_cast<TaskId>(g.num_tasks());
    for (const TaskId s : g.sources()) {
      const auto& succ = g.successors(s);
      if (std::find(succ.begin(), succ.end(), in.task) == succ.end()) {
        u = s;
        break;
      }
    }
    if (u != static_cast<TaskId>(g.num_tasks())) {
      e.add_edge(u, in.task);
      if (compare("after add_edge")) return violated(*diverged);
      e.remove_edge(u, in.task);
      if (compare("after remove_edge")) return violated(*diverged);
    }
  }

  return holds();
}

// --- dag_dp_matches_enumeration --------------------------------------------

PropertyOutcome check_dag_dp_matches_enumeration(const Inputs& in) {
  DagDpOptions dpo;
  dpo.fault_drop_source_period =
      in.cfg.fault == FaultInjection::kCorruptDpSummary;

  // The DP's relaxation target is fixed: kIndependent on the full chains
  // (DESIGN.md §10), independent of the requested method × truncation.
  DisparityOptions relax_opt = disparity_options(in, DisparityMethod::kIndependent);
  relax_opt.truncation = JointTruncation::kNever;
  relax_opt.keep_pairs = KeepPairs::kWorstOnly;
  const DisparityReport relax =
      analyze_time_disparity_kernel(in.g, in.task, in.rtm, relax_opt);

  for (const DisparityMethod m :
       {DisparityMethod::kIndependent, DisparityMethod::kForkJoin}) {
    for (const JointTruncation tr : {JointTruncation::kAuto,
                                     JointTruncation::kAlways,
                                     JointTruncation::kNever}) {
      DisparityOptions opt = disparity_options(in, m);
      opt.truncation = tr;
      opt.keep_pairs = KeepPairs::kWorstOnly;
      const std::string combo =
          std::string(m == DisparityMethod::kIndependent ? "P" : "S") +
          "-diff/trunc=" + std::to_string(static_cast<int>(tr));

      const DisparityReport ref =
          analyze_time_disparity_kernel(in.g, in.task, in.rtm, opt);
      const DisparityReport dp =
          analyze_time_disparity_dag_dp(in.g, in.task, in.rtm, opt, dpo);

      if (dp.chain_count_saturated || dp.chain_count != in.chains.size()) {
        return violated("DP chain_count " + std::to_string(dp.chain_count) +
                        (dp.chain_count_saturated ? " (saturated)" : "") +
                        " != enumerated |P| " +
                        std::to_string(in.chains.size()) + " at " + combo);
      }
      if (dp.exact) {
        // Exactness claim: bit-identical to the enumerating kernel at the
        // *requested* combination.
        if (dp.worst_case != ref.worst_case) {
          return violated("exact DP worst_case " + dur(dp.worst_case) +
                          " != kernel " + dur(ref.worst_case) + " at " +
                          combo);
        }
      } else {
        // Relaxation contract: equal by construction to the kIndependent +
        // kNever enumeration, hence never below a kNever reference
        // (Theorem 2 is clamped by Theorem 1 on the full chains).
        if (dp.worst_case != relax.worst_case) {
          return violated("relaxed DP worst_case " + dur(dp.worst_case) +
                          " != P-diff/kNever kernel " +
                          dur(relax.worst_case) + " at " + combo);
        }
        if (tr == JointTruncation::kNever && dp.worst_case < ref.worst_case) {
          return violated("relaxed DP worst_case " + dur(dp.worst_case) +
                          " below kernel " + dur(ref.worst_case) + " at " +
                          combo);
        }
      }

      // The routed front door must always land on the exact result for
      // enumerable instances: DP when its claim holds, kernel fallback
      // otherwise.
      DisparityOptions bopt = opt;
      bopt.backend = DisparityBackend::kDagDp;
      const DisparityReport routed = analyze_time_disparity_backend(
          in.g, in.task, in.rtm, bopt, dpo);
      const DisparityBackend want =
          dp.exact ? DisparityBackend::kDagDp : DisparityBackend::kEnumerate;
      if (routed.backend != want) {
        return violated(std::string("routed backend ") +
                        (routed.backend == DisparityBackend::kDagDp
                             ? "dag_dp"
                             : "enumerate") +
                        " != expected " +
                        (want == DisparityBackend::kDagDp ? "dag_dp"
                                                          : "enumerate") +
                        " at " + combo);
      }
      if (routed.worst_case != ref.worst_case) {
        return violated("routed worst_case " + dur(routed.worst_case) +
                        " != kernel " + dur(ref.worst_case) + " at " + combo);
      }
    }
  }
  return holds();
}

// --- explored_configs_revalidate -------------------------------------------

PropertyOutcome check_explored_configs_revalidate(const Inputs& in) {
  explore::ExploreOptions eopt;
  eopt.strategy = explore::Strategy::kPortfolio;
  eopt.seed = in.cfg.sim_seed;
  eopt.moves_per_restart = 48;
  eopt.restarts = 2;
  eopt.num_threads = 1;
  eopt.path_cap = in.cfg.path_cap;
  eopt.fault_skip_rollback =
      in.cfg.fault == FaultInjection::kSkipExploreRollback;

  AnalysisEngine engine(in.g);
  if (!engine.schedulable()) {
    return skipped("unschedulable under the engine's own RTA");
  }
  const explore::ExploreResult result =
      explore::explore(engine, in.task, eopt);
  for (const explore::ArchiveEntry& e : result.archive) {
    const explore::Objectives replayed =
        explore::replay_objectives(in.g, e, in.task, eopt);
    if (!(replayed == e.objectives)) {
      return violated(
          "archive entry (key " + std::to_string(e.key) + ", " +
          std::to_string(e.delta.size()) + " edits) archived disparity " +
          dur(e.objectives.disparity) + "/age " + dur(e.objectives.data_age) +
          "/memory " + std::to_string(e.objectives.memory) +
          " but replays to disparity " + dur(replayed.disparity) + "/age " +
          dur(replayed.data_age) + "/memory " +
          std::to_string(replayed.memory));
    }
  }
  return holds();
}

// --- mixed-policy properties -----------------------------------------------

/// Deterministic discipline draw for one ECU: a splitmix64 finalizer over
/// (seed, ecu).  A pure function of the probe config and the ECU id, so a
/// shrink candidate (same cfg, subset of tasks) re-derives the identical
/// per-ECU mix and fixture replays stay exact.
SchedPolicy seeded_policy(std::uint64_t seed, EcuId ecu) {
  std::uint64_t x =
      seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(ecu) + 1));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  switch (x % 3) {
    case 0: return SchedPolicy::kNonPreemptive;
    case 1: return SchedPolicy::kPreemptive;
    default: return SchedPolicy::kEdf;
  }
}

/// The graph with every occupied ECU flipped to its seed-derived
/// discipline — the differential subject of the mixed-policy properties.
TaskGraph policy_twin(const TaskGraph& g, std::uint64_t seed) {
  TaskGraph twin = g;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const EcuId ecu = g.task(id).ecu;
    if (ecu == kNoEcu) continue;
    twin.set_policy(ecu, seeded_policy(seed, ecu));
  }
  return twin;
}

/// sim_warmup for the policy twin: same derivation, but from the twin's
/// own (policy-routed) backward bounds and response times.
Duration twin_warmup(const Inputs& in, const TaskGraph& twin,
                     const ResponseTimeMap& rtm) {
  Duration w = Duration::zero();
  for (const Path& c : in.chains) {
    w = std::max(w, backward_bounds(twin, c, rtm).wcbt);
  }
  return w + exact_warmup_horizon(twin, in.task, in.cfg.path_cap);
}

PropertyOutcome check_rta_policy_matches_sim(const Inputs& in) {
  const TaskGraph twin = policy_twin(in.g, in.cfg.sim_seed);
  RtaOptions ropt;
  ropt.fault_drop_largest_hp =
      in.cfg.fault == FaultInjection::kDropPreemptiveInterference;
  ropt.fault_edf_undercount = in.cfg.fault == FaultInjection::kEdfUndercount;
  const RtaResult rta = analyze_response_times(twin, ropt);
  if (!rta.all_schedulable) {
    return skipped("policy twin unschedulable under mixed-policy RTA");
  }
  const Duration warmup = twin_warmup(in, twin, rta.response_time);
  const Duration horizon = warmup + in.cfg.sim_window;
  if (horizon > in.cfg.max_sim_horizon) {
    return skipped("simulation horizon exceeds max_sim_horizon");
  }
  const SimResult res = run_sim(twin, in.cfg, warmup, horizon, false);
  for (TaskId id = 0; id < twin.num_tasks(); ++id) {
    if (res.max_response_time[id] > rta.response_time[id]) {
      const char* policy =
          twin.task(id).ecu == kNoEcu
              ? "source"
              : (twin.policy(twin.task(id).ecu) == SchedPolicy::kEdf
                     ? "edf"
                     : (twin.policy(twin.task(id).ecu) ==
                                SchedPolicy::kPreemptive
                            ? "preemptive"
                            : "nonpreemptive"));
      return violated("simulated response time " +
                      dur(res.max_response_time[id]) + " of task '" +
                      twin.task(id).name + "' (" + policy + ") > WCRT " +
                      dur(rta.response_time[id]) + " (seed " +
                      std::to_string(in.cfg.sim_seed) + ")");
    }
  }
  return holds();
}

PropertyOutcome check_mixed_policy_disparity_within_bounds(const Inputs& in) {
  const TaskGraph twin = policy_twin(in.g, in.cfg.sim_seed);
  const RtaResult rta = analyze_response_times(twin);
  if (!rta.all_schedulable) {
    return skipped("policy twin unschedulable under mixed-policy RTA");
  }
  const Duration warmup = twin_warmup(in, twin, rta.response_time);
  const Duration horizon = warmup + in.cfg.sim_window;
  if (horizon > in.cfg.max_sim_horizon) {
    return skipped("simulation horizon exceeds max_sim_horizon");
  }
  const Duration bound =
      analyze_time_disparity(twin, in.task, rta.response_time,
                             disparity_options(in, DisparityMethod::kForkJoin))
          .worst_case;
  const SimResult res = run_sim(twin, in.cfg, warmup, horizon, false);
  if (res.max_disparity[in.task] > bound) {
    return violated("mixed-policy simulated disparity " +
                    dur(res.max_disparity[in.task]) + " > S-diff bound " +
                    dur(bound) + " (seed " +
                    std::to_string(in.cfg.sim_seed) + ")");
  }
  return holds();
}

PropertyOutcome dispatch(Property p, const Inputs& in) {
  switch (p) {
    case Property::kEngineMatchesFree: return check_engine_matches_free(in);
    case Property::kBoundsOrdered: return check_bounds_ordered(in);
    case Property::kSdiffLeqPdiff: return check_sdiff_leq_pdiff(in);
    case Property::kSimWithinBound: return check_sim_within_bound(in);
    case Property::kBackwardInBounds: return check_backward_in_bounds(in);
    case Property::kExactWithinBound: return check_exact_within_bound(in);
    case Property::kExactMatchesSim: return check_exact_matches_sim(in);
    case Property::kBufferedShift: return check_buffered_shift(in);
    case Property::kBufferDesignConsistent:
      return check_buffer_design_consistent(in);
    case Property::kMultiBufferSafe: return check_multi_buffer_safe(in);
    case Property::kPairKernelMatchesReference:
      return check_pair_kernel_matches_reference(in);
    case Property::kIncrementalMatchesFresh:
      return check_incremental_matches_fresh(in);
    case Property::kDagDpMatchesEnumeration:
      return check_dag_dp_matches_enumeration(in);
    case Property::kMonteCarloWithinBounds:
      return check_montecarlo_within_bounds(in);
    case Property::kExploredConfigsRevalidate:
      return check_explored_configs_revalidate(in);
    case Property::kRtaPolicyMatchesSim:
      return check_rta_policy_matches_sim(in);
    case Property::kMixedPolicyDisparityWithinBounds:
      return check_mixed_policy_disparity_within_bounds(in);
  }
  throw Error("check_property: unknown property");
}

}  // namespace

const char* property_name(Property p) {
  return kPropertyNames[static_cast<std::size_t>(p)];
}

std::optional<Property> property_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumProperties; ++i) {
    if (name == kPropertyNames[i]) return kAllProperties[i];
  }
  return std::nullopt;
}

PropertyOutcome check_property(Property p, const TaskGraph& g, TaskId task,
                               const ProbeConfig& cfg) {
  obs::Span span("verify", property_name(p));
  try {
    if (task >= g.num_tasks()) return skipped("analyzed task id out of range");
    g.validate();
    const RtaResult rta = analyze_response_times(g);
    if (!rta.all_schedulable) return skipped("unschedulable");
    const std::vector<Path> chains =
        enumerate_source_chains(g, task, cfg.path_cap);
    if (chains.size() < 2) return skipped("fewer than two source chains");
    const Inputs in{g, task, rta.response_time, chains, cfg};
    return dispatch(p, in);
  } catch (const CapacityError& e) {
    return skipped(e.what(), /*capacity=*/true);
  } catch (const PreconditionError& e) {
    // The harness stepped outside some function's contract (e.g. a shrink
    // candidate with a shape an analysis rejects) — not a library bug.
    return skipped(std::string("precondition: ") + e.what());
  } catch (const std::exception& e) {
    // An InvariantError (or any other unexpected throw) on a valid graph
    // IS a finding: some internal assertion fired where math says it
    // cannot.
    return violated(std::string("analysis threw: ") + e.what());
  }
}

PropertyChecker::PropertyChecker(CheckerOptions opt) : opt_(std::move(opt)) {
  CETA_EXPECTS(opt_.min_tasks >= 3 && opt_.min_tasks <= opt_.max_tasks,
               "PropertyChecker: need 3 <= min_tasks <= max_tasks");
  CETA_EXPECTS(opt_.offset_probes >= 1, "PropertyChecker: need >= 1 probe");
}

namespace {

/// Cycle the three evaluation topologies so every campaign exercises
/// G(n,m) DAGs, Fig.-1 funnels and merged chain pairs.
TaskGraph draw_topology(std::size_t trial, std::size_t min_tasks,
                        std::size_t max_tasks, Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(min_tasks),
      static_cast<std::int64_t>(max_tasks)));
  switch (trial % 3) {
    case 0: {
      GnmDagOptions opt;
      opt.num_tasks = n;
      return gnm_random_dag(opt, rng);
    }
    case 1: {
      FunnelDagOptions opt;
      opt.num_tasks = std::max<std::size_t>(4, n);
      return funnel_random_dag(opt, rng);
    }
    default: {
      const std::size_t len_a =
          static_cast<std::size_t>(rng.uniform_int(2, 5));
      const std::size_t len_b =
          static_cast<std::size_t>(rng.uniform_int(2, 5));
      return merge_chains_at_sink(len_a, len_b);
    }
  }
}

}  // namespace

void PropertyChecker::check_instance(const TaskGraph& g, TaskId task,
                                     const ProbeConfig& cfg,
                                     CheckerReport& report) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (const Property p : kAllProperties) {
    const PropertyOutcome out = check_property(p, g, task, cfg);
    ++report.stats.properties_checked;
    reg.counter("verify.properties").add();
    if (out.status == PropertyOutcome::Status::kSkipped) {
      if (out.capacity_skip) {
        ++report.stats.skipped_capacity;
        reg.counter("verify.skips.capacity").add();
      } else {
        ++report.stats.skipped_other;
      }
      continue;
    }
    if (out.status != PropertyOutcome::Status::kViolated) continue;
    reg.counter("verify.violations").add();
    Violation v;
    v.property = p;
    v.task = task;
    v.sim_seed = cfg.sim_seed;
    v.detail = out.detail;
    v.original_tasks = g.num_tasks();
    if (opt_.shrink) {
      const ShrinkResult s = shrink_counterexample(
          g, task, [&](const TaskGraph& cand, TaskId cand_task) {
            return check_property(p, cand, cand_task, cfg).violated();
          });
      v.graph = s.graph;
      v.task = s.task;
      v.shrink_rounds = s.rounds;
    } else {
      v.graph = g;
    }
    report.violations.push_back(std::move(v));
    if (report.violations.size() >= opt_.max_violations) return;
  }
}

CheckerReport PropertyChecker::run() {
  obs::Span span("verify", "checker.run");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  Rng rng(opt_.seed);
  CheckerReport report;
  for (std::size_t trial = 0; trial < opt_.trials; ++trial) {
    ++report.stats.trials;
    reg.counter("verify.trials").add();
    TaskGraph g = draw_topology(trial, opt_.min_tasks, opt_.max_tasks, rng);
    WatersAssignOptions wopt;
    wopt.num_ecus = opt_.num_ecus;
    assign_waters_parameters(g, wopt, rng);

    const TaskId sink = g.sinks().front();
    const std::size_t n_chains = count_source_chains(g, sink);
    if (n_chains < 2) {
      ++report.stats.skipped_degenerate;
      continue;
    }
    if (n_chains > opt_.probe.path_cap) {
      ++report.stats.skipped_capacity;
      reg.counter("verify.skips.capacity").add();
      continue;
    }
    if (!analyze_response_times(g).all_schedulable) {
      ++report.stats.skipped_unschedulable;
      continue;
    }
    ++report.stats.graphs_checked;
    reg.counter("verify.graphs").add();

    for (std::size_t probe = 0; probe < opt_.offset_probes; ++probe) {
      Rng offset_rng = rng.split();
      randomize_offsets(g, offset_rng);
      ProbeConfig cfg = opt_.probe;
      cfg.sim_seed = offset_rng.seed();
      check_instance(g, sink, cfg, report);
      if (report.violations.size() >= opt_.max_violations) return report;
    }
  }
  return report;
}

}  // namespace ceta::verify
