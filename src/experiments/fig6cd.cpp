#include "experiments/fig6cd.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/stats.hpp"
#include "disparity/buffer_opt.hpp"
#include "disparity/forkjoin.hpp"
#include "engine/analysis_engine.hpp"
#include "experiments/table.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace ceta {

namespace {

struct InstanceRun {
  double sdiff_ms = 0.0;
  double sdiff_b_ms = 0.0;
  double sim_ms = 0.0;
  double sim_b_ms = 0.0;
  int buffer_size = 1;
};

/// Adversarial offsets for one chain pair: the `stale` chain gets all-zero
/// offsets (every consumer is released together with its producer and
/// reads the *previous* token — "just-miss", ~one period of staleness per
/// hop), while the `fresh` chain staggers each task right after its
/// predecessor's worst-case finish ("just-catch", minimal staleness).
/// This approximates the scenario Theorems 1-3 bound (WCBT on one chain
/// vs BCBT on the other); any offset assignment is a valid lower-bound
/// probe.
void set_stress_offsets(TaskGraph& g, const Path& stale, const Path& fresh,
                        const ResponseTimeMap& rtm) {
  for (TaskId id : stale) g.task(id).offset = Duration::zero();
  // Delay the stale source a hair past its consumer's release so the
  // first hop also just-misses (one extra source period of staleness).
  g.task(stale.front()).offset = Duration::us(1);
  Duration cursor = Duration::zero();
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const TaskId id = fresh[i];
    Task& t = g.task(id);
    t.offset = Duration::ns(
        floor_mod(cursor.count(), t.period.count()));
    cursor += rtm[id] + Duration::us(1);
  }
}

Duration max_disparity_over_offsets(TaskGraph& g, TaskId sink, Duration warmup,
                                    Duration window, std::size_t runs,
                                    Rng& rng, const Path& lambda,
                                    const Path& nu,
                                    const ResponseTimeMap& rtm) {
  Duration best = Duration::zero();
  auto run_once = [&](std::uint64_t seed) {
    SimOptions sopt;
    sopt.warmup = warmup;
    sopt.duration = warmup + window;
    sopt.seed = seed;
    sopt.exec_model = ExecTimeModel::kUniform;
    const SimResult res = Simulator(g, sopt).run();
    best = std::max(best, res.max_disparity[sink]);
  };
  // Random offset draws (the paper's procedure) ...
  for (std::size_t r = 0; r < runs; ++r) {
    Rng offset_rng = rng.split();
    randomize_offsets(g, offset_rng);
    run_once(offset_rng.seed());
  }
  // ... plus the two engineered worst-case-seeking patterns.
  set_stress_offsets(g, lambda, nu, rtm);
  run_once(rng.split().seed());
  set_stress_offsets(g, nu, lambda, rtm);
  run_once(rng.split().seed());
  return best;
}

InstanceRun run_one_instance(std::size_t len, const Fig6cdConfig& cfg,
                             Rng& rng, std::size_t& capacity_skips) {
  for (int attempt = 0; attempt < cfg.max_retries; ++attempt) {
    try {
    TaskGraph g = merge_chains_at_sink(len, len);
    WatersAssignOptions wopt;
    wopt.num_ecus = cfg.num_ecus;
    assign_waters_parameters(g, wopt, rng);

    // The engine shares one RTA and chain set across the S-diff bound,
    // the buffer design and the warm-up estimate below.
    const AnalysisEngine engine(g);
    if (!engine.schedulable()) continue;
    const ResponseTimeMap& rtm = engine.response_times();

    const TaskId sink = g.sinks().front();
    const std::vector<Path>& chains = engine.chains(sink);
    CETA_ASSERT(chains.size() == 2,
                "run_fig6cd: merged graph must have exactly two chains");
    const Path& lambda = chains[0];
    const Path& nu = chains[1];

    const ForkJoinBound fj = sdiff_pair_bound(g, lambda, nu, rtm);
    const BufferDesign design = engine.optimize_buffer_pair(lambda, nu);

    // Warm-up long enough that every backward chain (and the FIFO fill of
    // the buffered variant) has stabilized before measurement starts.
    const Duration wl = engine.chain_bounds(lambda).wcbt;
    const Duration wn = engine.chain_bounds(nu).wcbt;
    const Duration base_warmup =
        std::max(wl, wn) + Duration::ms(100);

    Duration sim;
    {
      TaskGraph base = g;
      sim = max_disparity_over_offsets(base, sink, base_warmup,
                                       cfg.sim_measure_window,
                                       cfg.offsets_per_instance, rng, lambda,
                                       nu, rtm);
    }
    Duration sim_b;
    {
      TaskGraph buffered = g;
      apply_buffer_design(buffered, design);
      const Duration fill =
          g.task(design.from).period * design.buffer_size;
      sim_b = max_disparity_over_offsets(
          buffered, sink, base_warmup + fill, cfg.sim_measure_window,
          cfg.offsets_per_instance, rng, lambda, nu, rtm);
    }

    InstanceRun out;
    out.sdiff_ms = fj.bound.as_ms();
    out.sdiff_b_ms = design.optimized_bound.as_ms();
    out.sim_ms = sim.as_ms();
    out.sim_b_ms = sim_b.as_ms();
    out.buffer_size = design.buffer_size;
    return out;
    } catch (const CapacityError&) {
      // Pathological draw (period lcm overflow, path-cap, simulator job
      // cap): skip-and-count, then retry with fresh randomness.
      ++capacity_skips;
    }
  }
  throw Error("run_fig6cd: no admissible instance after retries (len=" +
              std::to_string(len) + ")");
}

}  // namespace

std::vector<Fig6cdPoint> run_fig6cd(const Fig6cdConfig& cfg,
                                    const ProgressFn2& progress) {
  CETA_EXPECTS(!cfg.chain_lengths.empty(), "run_fig6cd: no chain lengths");
  CETA_EXPECTS(cfg.instances_per_point >= 1 && cfg.offsets_per_instance >= 1,
               "run_fig6cd: need at least one instance and one offset run");
  Rng rng(cfg.seed);
  std::vector<Fig6cdPoint> points;
  for (std::size_t len : cfg.chain_lengths) {
    OnlineStats sdiff, sdiff_b, sim, sim_b, ratio, ratio_b, bufsz;
    std::size_t capacity_skips = 0;
    for (std::size_t i = 0; i < cfg.instances_per_point; ++i) {
      const InstanceRun r = run_one_instance(len, cfg, rng, capacity_skips);
      sdiff.add(r.sdiff_ms);
      sdiff_b.add(r.sdiff_b_ms);
      sim.add(r.sim_ms);
      sim_b.add(r.sim_b_ms);
      bufsz.add(static_cast<double>(r.buffer_size));
      if (r.sim_ms > 0.0) ratio.add((r.sdiff_ms - r.sim_ms) / r.sim_ms);
      if (r.sim_b_ms > 0.0) {
        ratio_b.add((r.sdiff_b_ms - r.sim_b_ms) / r.sim_b_ms);
      }
    }
    Fig6cdPoint p;
    p.chain_length = len;
    p.instances = cfg.instances_per_point;
    p.sdiff_ms = sdiff.mean();
    p.sdiff_b_ms = sdiff_b.mean();
    p.sim_ms = sim.mean();
    p.sim_b_ms = sim_b.mean();
    p.sdiff_ratio = ratio.empty() ? 0.0 : ratio.mean();
    p.sdiff_b_ratio = ratio_b.empty() ? 0.0 : ratio_b.mean();
    p.buffer_size = bufsz.mean();
    p.capacity_skips = capacity_skips;
    points.push_back(p);
    if (progress) {
      progress("len=" + std::to_string(len) + " done: S-diff=" +
               fmt_double(p.sdiff_ms) + "ms S-diff-B=" +
               fmt_double(p.sdiff_b_ms) + "ms Sim=" + fmt_double(p.sim_ms) +
               "ms Sim-B=" + fmt_double(p.sim_b_ms) + "ms");
    }
  }
  return points;
}

}  // namespace ceta
