// Per-ECU scheduling-policy seam: RTA throughput and differential safety.
//
// The strategy seam (DESIGN.md §14) routes every ECU of a TaskGraph to one
// of three dispatching disciplines — non-preemptive FP (the paper's model),
// preemptive FP (busy-window RTA) and EDF (processor-demand RTA).  This
// driver measures what the seam costs and re-checks what it promises on
// the 64-task merged two-chain WATERS reference instance:
//
//   * analyze_response_times throughput with every ECU flipped to each
//     discipline (runs/sec per policy; EDF's candidate sweep is the
//     expensive one, the bench records how expensive);
//   * the policy-routed S-diff disparity bound per discipline (Lemma 4's
//     same-ECU refinements degrade under preemption/EDF, so the bounds
//     may only widen relative to non-preemptive — gated);
//   * a mixed-policy differential sweep: seeded WATERS instances with
//     ECUs cycled through the three disciplines, each simulated and
//     checked task-by-task against the policy-routed WCRTs — any
//     simulated response time above its bound fails the bench.
//
// Emits BENCH_policy.json (schema-checked by tests/check_bench_json.cpp
// mode "policy").  --fast shrinks iteration counts for smoke runs.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "sched/npfp_rta.hpp"
#include "sim/simulator.hpp"
#include "waters/generator.hpp"

namespace {

using ceta::Duration;
using ceta::Rng;
using ceta::SchedPolicy;
using ceta::TaskGraph;
using ceta::TaskId;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TaskGraph with_policy(const TaskGraph& g, SchedPolicy policy) {
  TaskGraph out = g;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    if (g.task(id).ecu != ceta::kNoEcu) out.set_policy(g.task(id).ecu, policy);
  }
  return out;
}

/// ECUs cycled through the three disciplines: the mixed-policy subject of
/// the differential sweep.
TaskGraph with_mixed_policies(const TaskGraph& g) {
  TaskGraph out = g;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const ceta::EcuId ecu = g.task(id).ecu;
    if (ecu == ceta::kNoEcu) continue;
    switch (ecu % 3) {
      case 0: out.set_policy(ecu, SchedPolicy::kNonPreemptive); break;
      case 1: out.set_policy(ecu, SchedPolicy::kPreemptive); break;
      default: out.set_policy(ecu, SchedPolicy::kEdf); break;
    }
  }
  return out;
}

/// analyze_response_times runs/sec on `g` (whose graph policies select the
/// discipline under test).
double rta_runs_per_sec(const TaskGraph& g, std::size_t iterations) {
  const auto t0 = std::chrono::steady_clock::now();
  Duration sink = Duration::zero();  // defeat dead-code elimination
  for (std::size_t i = 0; i < iterations; ++i) {
    const ceta::RtaResult r = ceta::analyze_response_times(g);
    sink += r.response_time.back();
  }
  const double wall = seconds_since(t0);
  if (sink == Duration::max()) std::cerr << "";  // keep `sink` observable
  return static_cast<double>(iterations) / (wall > 0 ? wall : 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  const ceta::bench::CliOptions cli = ceta::bench::parse_cli(argc, argv);
  const std::uint64_t seed = cli.seed != 0 ? cli.seed : 42;
  const std::size_t kRtaIters = cli.fast ? 200 : 2000;
  const std::size_t kSweepInstances = cli.fast ? 4 : 12;

  // The 64-task reference instance, first seed schedulable under all three
  // uniform disciplines (so every throughput column runs its fixpoints to
  // completion instead of bailing at the first unschedulable task).
  std::uint64_t waters_seed = 1;
  TaskGraph g;
  TaskGraph g_p, g_edf;
  for (;; ++waters_seed) {
    g = ceta::merge_chains_at_sink(33, 32);
    Rng rng(waters_seed);
    ceta::assign_waters_parameters(g, ceta::WatersAssignOptions{}, rng);
    g_p = with_policy(g, SchedPolicy::kPreemptive);
    g_edf = with_policy(g, SchedPolicy::kEdf);
    if (ceta::analyze_response_times(g).all_schedulable &&
        ceta::analyze_response_times(g_p).all_schedulable &&
        ceta::analyze_response_times(g_edf).all_schedulable) {
      break;
    }
  }
  const TaskId sink = g.sinks().front();

  // --- RTA throughput per discipline -------------------------------------
  const auto t_total = std::chrono::steady_clock::now();
  const double np_per_sec = rta_runs_per_sec(g, kRtaIters);
  const double p_per_sec = rta_runs_per_sec(g_p, kRtaIters);
  const double edf_per_sec = rta_runs_per_sec(g_edf, kRtaIters);

  // --- policy-routed disparity bounds ------------------------------------
  const ceta::AnalysisEngine e_np(g);
  const ceta::AnalysisEngine e_p(g_p);
  const ceta::AnalysisEngine e_edf(g_edf);
  const Duration d_np = e_np.disparity(sink).worst_case;
  const Duration d_p = e_p.disparity(sink).worst_case;
  const Duration d_edf = e_edf.disparity(sink).worst_case;

  // --- mixed-policy differential sweep -----------------------------------
  // Seeded WATERS instances, ECUs cycled through the disciplines, each
  // simulated and checked task-by-task against the policy-routed WCRTs.
  std::size_t swept = 0;
  std::size_t violations = 0;
  Rng sweep_rng(seed);
  for (std::size_t i = 0; i < kSweepInstances; ++i) {
    TaskGraph inst = ceta::merge_chains_at_sink(9, 8);
    ceta::WatersAssignOptions wopt;
    wopt.num_ecus = 3;
    ceta::assign_waters_parameters(inst, wopt, sweep_rng);
    const TaskGraph mixed = with_mixed_policies(inst);
    const ceta::RtaResult rta = ceta::analyze_response_times(mixed);
    if (!rta.all_schedulable) continue;
    ceta::SimOptions sopt;
    sopt.duration = Duration::s(2);
    sopt.warmup = Duration::ms(500);
    sopt.seed = sweep_rng.split().seed();
    const ceta::SimResult res = ceta::Simulator(mixed, sopt).run();
    for (TaskId id = 0; id < mixed.num_tasks(); ++id) {
      if (res.max_response_time[id] > rta.response_time[id]) {
        ++violations;
        std::cerr << "perf_policy: task '" << mixed.task(id).name
                  << "' simulated R "
                  << res.max_response_time[id].count() << " ns > WCRT "
                  << rta.response_time[id].count() << " ns (instance " << i
                  << ")\n";
      }
    }
    ++swept;
  }
  const bool match = violations == 0 && swept > 0;
  const double wall = seconds_since(t_total);

  std::cout << "perf_policy: " << g.num_tasks() << " tasks, waters seed "
            << waters_seed << "\n"
            << "  RTA runs/sec: nonpreemptive " << np_per_sec
            << ", preemptive " << p_per_sec << ", edf " << edf_per_sec << "\n"
            << "  S-diff bound [ms]: np " << d_np.as_ms() << ", p "
            << d_p.as_ms() << ", edf " << d_edf.as_ms() << "\n"
            << "  mixed-policy sweep: " << swept << " instances, "
            << violations << " sim-over-WCRT violations\n"
            << "  match " << (match ? "ok" : "FAIL") << "\n";

  ceta::bench::write_json_file("BENCH_policy.json", [&](ceta::obs::JsonWriter&
                                                            w) {
    w.member("bench", "policy");
    w.member("tasks", static_cast<std::uint64_t>(g.num_tasks()));
    w.member("waters_seed", waters_seed);
    w.member("seed", seed);
    w.member("rta_iterations", static_cast<std::uint64_t>(kRtaIters));
    w.member("rta_np_per_sec", np_per_sec);
    w.member("rta_preemptive_per_sec", p_per_sec);
    w.member("rta_edf_per_sec", edf_per_sec);
    w.member("disparity_np_ns", d_np.count());
    w.member("disparity_preemptive_ns", d_p.count());
    w.member("disparity_edf_ns", d_edf.count());
    w.member("sweep_instances", static_cast<std::uint64_t>(swept));
    w.member("sweep_violations", static_cast<std::uint64_t>(violations));
    w.member("match", match);
    w.member("wall_seconds", wall);
  });

  return match ? 0 : 1;
}
