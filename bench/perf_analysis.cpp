// Performance microbenchmarks of the analysis path: response-time
// analysis, chain enumeration, Theorem 1/2 pair bounds, task-level
// disparity analysis and Algorithm 1, across graph sizes — plus the
// AnalysisEngine facade against the free-function path (cold and warm
// cache).  After the
// google-benchmark run, a manual engine-vs-free comparison on a Fig. 6
// style workload is written to BENCH_engine.json, the pairwise kernel
// is timed against the reference analyzer on a 256-chain diamond stack
// (cross-checked bit-for-bit) into BENCH_pairwise.json, and a 64-point
// FIFO-depth sweep through the mutation API is timed against per-point
// fresh-engine rebuilds (again cross-checked bit-for-bit) into
// BENCH_incremental.json, and the DAG-DP disparity backend is checked
// against the kernel and timed on a 10⁴-task ladder into
// BENCH_dagdp.json — the run fails if any comparison ever diverges.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/critical.hpp"
#include "common/rng.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/buffer_opt.hpp"
#include "disparity/dag_dp.hpp"
#include "disparity/exact.hpp"
#include "disparity/pair_kernel.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/incremental.hpp"
#include "experiments/table.hpp"
#include "graph/algorithms.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "sched/audsley.hpp"
#include "sched/npfp_rta.hpp"
#include "sched/priority.hpp"
#include "waters/generator.hpp"

namespace {

using namespace ceta;

/// Deterministic admissible instance per (size, seed).
TaskGraph make_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  for (;;) {
    GnmDagOptions gopt;
    gopt.num_tasks = n;
    TaskGraph g = gnm_random_dag(gopt, rng);
    WatersAssignOptions wopt;
    wopt.num_ecus = 4;
    assign_waters_parameters(g, wopt, rng);
    const TaskId sink = g.sinks().front();
    const std::size_t chains = count_source_chains(g, sink);
    if (chains >= 2 && chains <= 500 &&
        analyze_response_times(g).all_schedulable) {
      return g;
    }
  }
}

void BM_ResponseTimeAnalysis(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_response_times(g));
  }
}
BENCHMARK(BM_ResponseTimeAnalysis)->Arg(10)->Arg(20)->Arg(35);

void BM_ChainEnumeration(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 2);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_source_chains(g, sink));
  }
}
BENCHMARK(BM_ChainEnumeration)->Arg(10)->Arg(20)->Arg(35);

void BM_SdiffPairBound(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 3);
  const RtaResult rta = analyze_response_times(g);
  const auto chains = enumerate_source_chains(g, g.sinks().front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sdiff_pair_bound(g, chains[0], chains[1], rta.response_time));
  }
}
BENCHMARK(BM_SdiffPairBound)->Arg(10)->Arg(20)->Arg(35);

void BM_TaskDisparityPdiff(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 4);
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  DisparityOptions opt;
  opt.method = DisparityMethod::kIndependent;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyze_time_disparity(g, sink, rta.response_time, opt));
  }
}
BENCHMARK(BM_TaskDisparityPdiff)->Arg(10)->Arg(20)->Arg(35);

void BM_TaskDisparitySdiff(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 4);
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  DisparityOptions opt;
  opt.method = DisparityMethod::kForkJoin;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyze_time_disparity(g, sink, rta.response_time, opt));
  }
}
BENCHMARK(BM_TaskDisparitySdiff)->Arg(10)->Arg(20)->Arg(35);

void BM_BufferDesign(benchmark::State& state) {
  Rng rng(5);
  TaskGraph g = merge_chains_at_sink(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(0)));
  WatersAssignOptions wopt;
  assign_waters_parameters(g, wopt, rng);
  const RtaResult rta = analyze_response_times(g);
  const auto chains = enumerate_source_chains(g, g.sinks().front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        design_buffer(g, chains[0], chains[1], rta.response_time));
  }
}
BENCHMARK(BM_BufferDesign)->Arg(5)->Arg(15)->Arg(30);

void BM_CriticalChain(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 6);
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(critical_chain(g, sink, rta.response_time));
  }
}
BENCHMARK(BM_CriticalChain)->Arg(10)->Arg(20)->Arg(35);

void BM_AudsleyAssignment(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    TaskGraph copy = g;
    benchmark::DoNotOptimize(assign_priorities_audsley(copy));
  }
}
BENCHMARK(BM_AudsleyAssignment)->Arg(10)->Arg(20)->Arg(35);

void BM_ExactLetDisparity(benchmark::State& state) {
  Rng rng(8);
  TaskGraph g = merge_chains_at_sink(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(0)));
  WatersAssignOptions wopt;
  assign_waters_parameters(g, wopt, rng);
  g.set_comm_semantics(CommSemantics::kLet);
  randomize_offsets(g, rng);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_let_disparity(g, sink));
  }
}
BENCHMARK(BM_ExactLetDisparity)->Arg(4)->Arg(8)->Arg(16);

void BM_SensitivityScan(benchmark::State& state) {
  const TaskGraph g = make_graph(12, 9);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    // A fresh engine per scan: the timed unit is one cold scan, RTA
    // included.
    AnalysisEngine engine(g);
    benchmark::DoNotOptimize(disparity_sensitivity(engine, sink));
  }
}
BENCHMARK(BM_SensitivityScan);

void BM_AncestorSubgraph(benchmark::State& state) {
  const TaskGraph g = make_graph(35, 10);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ancestor_subgraph(g, sink));
  }
}
BENCHMARK(BM_AncestorSubgraph);

// ---- pairwise kernel vs reference -----------------------------------------

/// S → F → `stages` serial diamonds: 2^stages source chains through the
/// sink, every pair sharing the source and the per-stage merge tasks —
/// the dense-joint workload the pairwise kernel targets.  Deterministic
/// hand parameters (one 20ms rate, tiny WCETs over 2 ECUs) keep the
/// instance schedulable by construction, so timings are seed-free.
TaskGraph diamond_stack_graph(std::size_t stages) {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(20);
  TaskId prev = g.add_task(s);

  int prio[2] = {0, 0};
  auto mk = [&](const std::string& name, EcuId ecu) {
    Task t;
    t.name = name;
    t.wcet = Duration::us(200);
    t.bcet = Duration::us(100);
    t.period = Duration::ms(20);
    t.ecu = ecu;
    t.priority = prio[ecu]++;
    return g.add_task(t);
  };
  const TaskId f = mk("F", 0);
  g.add_edge(prev, f);
  prev = f;
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string n = std::to_string(i);
    const TaskId a = mk("A" + n, 0);
    const TaskId b = mk("B" + n, 1);
    const TaskId m = mk("M" + n, 1);
    g.add_edge(prev, a);
    g.add_edge(prev, b);
    g.add_edge(a, m);
    g.add_edge(b, m);
    prev = m;
  }
  g.validate();
  return g;
}

void BM_PairReference(benchmark::State& state) {
  const TaskGraph g =
      diamond_stack_graph(static_cast<std::size_t>(state.range(0)));
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyze_time_disparity(g, sink, rta.response_time));
  }
  state.counters["chains"] = static_cast<double>(
      count_source_chains(g, sink));
}
BENCHMARK(BM_PairReference)->Arg(4)->Arg(6)->Arg(8);

void BM_PairKernel(benchmark::State& state) {
  const TaskGraph g =
      diamond_stack_graph(static_cast<std::size_t>(state.range(0)));
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyze_time_disparity_kernel(g, sink, rta.response_time));
  }
  state.counters["chains"] = static_cast<double>(
      count_source_chains(g, sink));
}
BENCHMARK(BM_PairKernel)->Arg(4)->Arg(6)->Arg(8);

void BM_PairKernelWorstOnly(benchmark::State& state) {
  // Streaming mode: worst_case without materializing the O(K²) vector.
  const TaskGraph g = diamond_stack_graph(8);
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  DisparityOptions opt;
  opt.keep_pairs = KeepPairs::kWorstOnly;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyze_time_disparity_kernel(g, sink, rta.response_time, opt));
  }
}
BENCHMARK(BM_PairKernelWorstOnly);

// ---- DAG-DP backend --------------------------------------------------------

/// `layers` serial diamonds with every task alone on its own ECU
/// (WCRT = WCET trivially): 1 + 3·layers tasks, 2^layers source chains —
/// far beyond any enumeration cap at the sizes benchmarked here, which is
/// exactly the regime the DP backend exists for.
TaskGraph dagdp_ladder_graph(std::size_t layers) {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  TaskId prev = g.add_task(s);
  EcuId next_ecu = 0;
  auto mk = [&](const std::string& name) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = Duration::ms(10);
    t.ecu = next_ecu++;
    t.priority = 0;
    return g.add_task(t);
  };
  for (std::size_t i = 0; i < layers; ++i) {
    const std::string n = std::to_string(i);
    const TaskId a = mk("a" + n);
    const TaskId b = mk("b" + n);
    const TaskId j = mk("j" + n);
    g.add_edge(prev, a);
    g.add_edge(prev, b);
    g.add_edge(a, j);
    g.add_edge(b, j);
    prev = j;
  }
  g.validate();
  return g;
}

/// The exact DP combination the huge-graph workloads use: P-diff on full
/// chains, streamed worst pair only.
DisparityOptions dagdp_options() {
  DisparityOptions opt;
  opt.method = DisparityMethod::kIndependent;
  opt.truncation = JointTruncation::kNever;
  opt.keep_pairs = KeepPairs::kWorstOnly;
  opt.backend = DisparityBackend::kDagDp;
  return opt;
}

/// One DP analysis of the ladder sink; 100/1000/10000-task graphs whose
/// chain sets (2^33 .. 2^3333) no enumerator could touch.
void BM_DagDpSerial(benchmark::State& state) {
  const std::size_t layers = static_cast<std::size_t>(state.range(0));
  const TaskGraph g = dagdp_ladder_graph(layers);
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  const DisparityOptions opt = dagdp_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyze_time_disparity_dag_dp(g, sink, rta.response_time, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_tasks()));
  state.counters["tasks"] = static_cast<double>(g.num_tasks());
}
BENCHMARK(BM_DagDpSerial)->Arg(33)->Arg(333)->Arg(3333);

// ---- AnalysisEngine vs free functions -------------------------------------

/// Free-function session: RTA + task-level S-diff from scratch (what a
/// caller without the engine pays per analysis).
void BM_FreeFunctionDisparity(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 4);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    const RtaResult rta = analyze_response_times(g);
    benchmark::DoNotOptimize(
        analyze_time_disparity(g, sink, rta.response_time));
  }
}
BENCHMARK(BM_FreeFunctionDisparity)->Arg(10)->Arg(20)->Arg(35);

/// Cold cache: a fresh engine per iteration (graph copy + RTA + analysis;
/// the facade's one-shot overhead over the free path).
void BM_EngineDisparityCold(benchmark::State& state) {
  const TaskGraph g = make_graph(static_cast<std::size_t>(state.range(0)), 4);
  const TaskId sink = g.sinks().front();
  for (auto _ : state) {
    const AnalysisEngine engine(g);
    benchmark::DoNotOptimize(engine.disparity(sink));
  }
}
BENCHMARK(BM_EngineDisparityCold)->Arg(10)->Arg(20)->Arg(35);

/// Warm cache: repeated queries against one engine (the session pattern
/// the facade exists for).
void BM_EngineDisparityWarm(benchmark::State& state) {
  const AnalysisEngine engine(
      make_graph(static_cast<std::size_t>(state.range(0)), 4));
  const TaskId sink = engine.graph().sinks().front();
  (void)engine.disparity(sink);  // populate
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.disparity(sink));
  }
}
BENCHMARK(BM_EngineDisparityWarm)->Arg(10)->Arg(20)->Arg(35);

// ---- manual engine-vs-free comparison -> BENCH_engine.json ----------------

double time_ns(const std::function<void()>& fn, int iters) {
  // One untimed warm-up run, then the mean over `iters`.
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                 .count()) /
         iters;
}

/// Fig. 6-style workload: the full per-instance analysis session (P-diff +
/// S-diff of the sink) via free functions vs one engine.  Writes
/// BENCH_engine.json.
void write_engine_comparison(const std::string& path) {
  const TaskGraph g = make_graph(35, 1);
  const TaskId sink = g.sinks().front();
  DisparityOptions pdiff;
  pdiff.method = DisparityMethod::kIndependent;
  constexpr int kIters = 50;

  const double free_session_ns = time_ns(
      [&] {
        const RtaResult rta = analyze_response_times(g);
        benchmark::DoNotOptimize(
            analyze_time_disparity(g, sink, rta.response_time, pdiff));
        benchmark::DoNotOptimize(
            analyze_time_disparity(g, sink, rta.response_time));
      },
      kIters);
  const double engine_cold_ns = time_ns(
      [&] {
        const AnalysisEngine engine(g);
        benchmark::DoNotOptimize(engine.disparity(sink, pdiff));
        benchmark::DoNotOptimize(engine.disparity(sink));
      },
      kIters);

  const AnalysisEngine warm(g);
  (void)warm.disparity(sink);
  const double free_single_ns = time_ns(
      [&] {
        const RtaResult rta = analyze_response_times(g);
        benchmark::DoNotOptimize(
            analyze_time_disparity(g, sink, rta.response_time));
      },
      kIters);
  const double engine_warm_ns = time_ns(
      [&] { benchmark::DoNotOptimize(warm.disparity(sink)); }, kIters);

  bench::write_json_file(path, [&](obs::JsonWriter& w) {
    w.member("bench", "engine_vs_free")
        .member("graph_tasks", static_cast<std::int64_t>(g.num_tasks()))
        .member("free_session_ns", free_session_ns)
        .member("engine_cold_session_ns", engine_cold_ns)
        .member("cold_overhead", engine_cold_ns / free_session_ns)
        .member("free_single_ns", free_single_ns)
        .member("engine_warm_ns", engine_warm_ns)
        .member("warm_speedup", free_single_ns / engine_warm_ns);
    // The warm engine's cache counters plus the process-wide registry
    // (RTA runs, hop-bound computations, ... of the whole bench run).
    bench::write_metrics_member(w, "engine_metrics", warm.metrics());
    bench::write_metrics_member(w, "global_metrics",
                                obs::MetricsRegistry::global().snapshot());
  });
  std::cout << "engine-vs-free comparison written to " << path
            << " (warm speedup: " << free_single_ns / engine_warm_ns
            << "x)\n";
}

// ---- kernel-vs-reference comparison -> BENCH_pairwise.json -----------------

bool reports_identical(const DisparityReport& a, const DisparityReport& b) {
  if (a.worst_case != b.worst_case || a.chains != b.chains ||
      a.pairs.size() != b.pairs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    if (a.pairs[i].chain_a != b.pairs[i].chain_a ||
        a.pairs[i].chain_b != b.pairs[i].chain_b ||
        a.pairs[i].bound != b.pairs[i].bound) {
      return false;
    }
  }
  return true;
}

/// Reference analyzer vs the pairwise kernel on a 256-chain diamond stack, cross-checked bit-for-bit.  Writes
/// BENCH_pairwise.json; returns false on any kernel-vs-reference
/// divergence (perf_smoke and main() turn that into a failure).
bool write_pairwise_comparison(const std::string& path) {
  constexpr std::size_t kStages = 8;  // 2^8 = 256 chains, 32640 pairs
  const TaskGraph g = diamond_stack_graph(kStages);
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  const std::size_t chains = count_source_chains(g, sink);
  const std::size_t pairs = chains * (chains - 1) / 2;
  const DisparityOptions opt;  // S-diff, last-joint truncation, keep all
  constexpr int kIters = 3;

  DisparityReport ref, ker;
  const double reference_ns = time_ns(
      [&] { ref = analyze_time_disparity(g, sink, rta.response_time, opt); },
      kIters);
  const double kernel_ns = time_ns(
      [&] {
        ker = analyze_time_disparity_kernel(g, sink, rta.response_time, opt);
      },
      kIters);
  const bool match = reports_identical(ref, ker);

  bench::write_json_file(path, [&](obs::JsonWriter& w) {
    w.member("bench", "pairwise_kernel_vs_reference")
        .member("stages", static_cast<std::int64_t>(kStages))
        .member("chains", static_cast<std::int64_t>(chains))
        .member("pairs", static_cast<std::int64_t>(pairs))
        .member("worst_case_ns",
                static_cast<std::int64_t>(ref.worst_case.count()))
        .member("reference_ns", reference_ns)
        .member("kernel_ns", kernel_ns)
        .member("speedup", reference_ns / kernel_ns)
        .member("match", match);
  });
  std::cout << "pairwise kernel comparison written to " << path << " ("
            << chains << " chains, speedup: " << reference_ns / kernel_ns
            << "x, match: " << (match ? "true" : "false") << ")\n";
  return match;
}

// ---- DAG DP vs enumeration -> BENCH_dagdp.json -----------------------------

/// DP backend vs the enumerating kernel: worst-pair agreement is checked
/// bit-for-bit on an enumerable 256-chain diamond stack, then the DP's
/// throughput is recorded on a 10⁴-task ladder (2^3333 chains — beyond
/// any enumeration cap, and beyond size_t).  Writes BENCH_dagdp.json;
/// returns false on any DP-vs-kernel divergence (perf_smoke and main()
/// turn that into a failure).
bool write_dagdp_comparison(const std::string& path) {
  const DisparityOptions opt = dagdp_options();

  // Agreement pass on an enumerable instance (same options, both ways).
  const TaskGraph small = diamond_stack_graph(8);
  const RtaResult small_rta = analyze_response_times(small);
  const TaskId small_sink = small.sinks().front();
  const DisparityReport dp_small = analyze_time_disparity_dag_dp(
      small, small_sink, small_rta.response_time, opt);
  const DisparityReport ker_small = analyze_time_disparity_kernel(
      small, small_sink, small_rta.response_time, opt);
  const bool match = dp_small.exact &&
                     dp_small.worst_case == ker_small.worst_case &&
                     dp_small.chain_count == ker_small.chain_count;

  // Throughput pass on the 10⁴-task ladder.
  constexpr std::size_t kLayers = 3333;  // 1 + 3*3333 = 10000 tasks
  const TaskGraph g = dagdp_ladder_graph(kLayers);
  const RtaResult rta = analyze_response_times(g);
  const TaskId sink = g.sinks().front();
  constexpr int kIters = 3;
  DisparityReport huge;
  const double serial_ns = time_ns(
      [&] {
        huge = analyze_time_disparity_dag_dp(g, sink, rta.response_time, opt);
      },
      kIters);
  const double tasks_per_sec =
      static_cast<double>(g.num_tasks()) / (serial_ns * 1e-9);

  bench::write_json_file(path, [&](obs::JsonWriter& w) {
    w.member("bench", "dagdp_vs_enumeration")
        .member("agreement_chains",
                static_cast<std::int64_t>(ker_small.chain_count))
        .member("match", match)
        .member("graph_tasks", static_cast<std::int64_t>(g.num_tasks()))
        .member("chain_count_saturated", huge.chain_count_saturated)
        .member("worst_case_ns",
                static_cast<std::int64_t>(huge.worst_case.count()))
        .member("exact", huge.exact)
        .member("serial_ns", serial_ns)
        .member("tasks_per_sec", tasks_per_sec);
  });
  std::cout << "dag-dp comparison written to " << path << " ("
            << g.num_tasks() << " tasks, " << tasks_per_sec
            << " tasks/sec, match: " << (match ? "true" : "false") << ")\n";
  return match;
}

// ---- incremental mutation API vs fresh rebuilds -> BENCH_incremental.json --

/// Deterministic 55-task workload for the buffer sweep: two 28-task
/// chains merged at one sink, WATERS parameters, first schedulable seed.
/// Long chains make the fresh-rebuild cost (full RTA + enumeration + all
/// bounds) dwarf what a buffer edit actually dirties (one chain's bounds
/// plus the sink report).
TaskGraph incremental_sweep_graph() {
  for (std::uint64_t seed = 1;; ++seed) {
    Rng rng(seed);
    TaskGraph g = merge_chains_at_sink(28, 28);
    WatersAssignOptions wopt;
    wopt.num_ecus = 4;
    assign_waters_parameters(g, wopt, rng);
    if (analyze_response_times(g).all_schedulable) return g;
  }
}

/// One 64-point buffer sweep through the mutation API: resize the head
/// channel of chain λ₀, re-query the sink disparity, repeat.  Each point
/// pays only the §9 "buffer" row: the resized chain's bounds + the sink
/// report; RTA, hops, the other chain's bounds and the chain sets survive.
void BM_IncrementalBufferSweep(benchmark::State& state) {
  const TaskGraph g = incremental_sweep_graph();
  const TaskId sink = g.sinks().front();
  const auto chains = enumerate_source_chains(g, sink);
  const TaskId from = chains[0][0];
  const TaskId to = chains[0][1];
  AnalysisEngine engine{TaskGraph{g}};
  (void)engine.disparity(sink);  // warm
  for (auto _ : state) {
    for (int n = 1; n <= 64; ++n) {
      engine.set_buffer(from, to, n);
      benchmark::DoNotOptimize(engine.disparity(sink));
    }
    engine.set_buffer(from, to, 1);
  }
  state.counters["points"] = 64;
}
BENCHMARK(BM_IncrementalBufferSweep);

/// The same sweep paying a full engine rebuild per point (the pre-mutation
/// API workflow): graph copy + validate + RTA + enumeration + every bound.
void BM_FreshBufferSweep(benchmark::State& state) {
  const TaskGraph g = incremental_sweep_graph();
  const TaskId sink = g.sinks().front();
  const auto chains = enumerate_source_chains(g, sink);
  const TaskId from = chains[0][0];
  const TaskId to = chains[0][1];
  for (auto _ : state) {
    for (int n = 1; n <= 64; ++n) {
      TaskGraph copy = g;
      copy.set_buffer_size(from, to, n);
      const AnalysisEngine fresh{std::move(copy)};
      benchmark::DoNotOptimize(fresh.disparity(sink));
    }
  }
  state.counters["points"] = 64;
}
BENCHMARK(BM_FreshBufferSweep);

/// 64-point buffer sweep, incremental engine vs fresh-engine rebuilds,
/// cross-checked bit-for-bit per point.  Writes BENCH_incremental.json;
/// returns false on any divergence (perf_smoke and main() fail then).
bool write_incremental_comparison(const std::string& path) {
  constexpr int kPoints = 64;
  const TaskGraph g = incremental_sweep_graph();
  const TaskId sink = g.sinks().front();
  const auto chains = enumerate_source_chains(g, sink);
  const TaskId from = chains[0][0];
  const TaskId to = chains[0][1];

  // Correctness pass first: every sweep point must match a fresh engine
  // on the identically-buffered graph, field for field.
  AnalysisEngine engine{TaskGraph{g}};
  (void)engine.disparity(sink);
  bool match = true;
  for (int n = 1; n <= kPoints && match; ++n) {
    engine.set_buffer(from, to, n);
    TaskGraph copy = g;
    copy.set_buffer_size(from, to, n);
    const AnalysisEngine fresh{std::move(copy)};
    match = reports_identical(engine.disparity(sink), fresh.disparity(sink));
  }
  engine.set_buffer(from, to, 1);
  (void)engine.disparity(sink);

  constexpr int kIters = 5;
  const double incremental_ns = time_ns(
      [&] {
        for (int n = 1; n <= kPoints; ++n) {
          engine.set_buffer(from, to, n);
          benchmark::DoNotOptimize(engine.disparity(sink));
        }
        engine.set_buffer(from, to, 1);
        benchmark::DoNotOptimize(engine.disparity(sink));
      },
      kIters);
  const double fresh_ns = time_ns(
      [&] {
        for (int n = 1; n <= kPoints; ++n) {
          TaskGraph copy = g;
          copy.set_buffer_size(from, to, n);
          const AnalysisEngine fresh{std::move(copy)};
          benchmark::DoNotOptimize(fresh.disparity(sink));
        }
      },
      kIters);
  const double speedup = fresh_ns / incremental_ns;

  const obs::MetricsSnapshot m = engine.metrics();
  std::int64_t retention_ppm = 0;
  for (const auto& [name, value] : m.gauges) {
    if (name == "engine.mutate.retention_ppm") retention_ppm = value;
  }
  bench::write_json_file(path, [&](obs::JsonWriter& w) {
    w.member("bench", "incremental_vs_fresh")
        .member("graph_tasks", static_cast<std::int64_t>(g.num_tasks()))
        .member("sweep_points", static_cast<std::int64_t>(kPoints))
        .member("fresh_ns", fresh_ns)
        .member("incremental_ns", incremental_ns)
        .member("speedup", speedup)
        .member("commits",
                static_cast<std::int64_t>(m.counter("engine.mutate.commits")))
        .member("retention_ppm", retention_ppm)
        .member("match", match);
    bench::write_metrics_member(w, "engine_metrics", m);
  });
  std::cout << "incremental-vs-fresh comparison written to " << path << " ("
            << kPoints << " sweep points, speedup: " << speedup
            << "x, retention: " << static_cast<double>(retention_ppm) / 10'000.0
            << "%, match: " << (match ? "true" : "false") << ")\n";
  return match;
}

// ---- disabled-tracing overhead budget --------------------------------------

/// Assert the overhead budget of compiled-in-but-disabled tracing: spans
/// cost one atomic load + branch, so (spans per analysis) x (disabled
/// span cost) must stay under 2% of the analysis runtime.  Span-cost
/// accounting is used instead of differencing two timed runs because the
/// difference of two ~equal ms-scale timings is noise on a busy 1-core
/// host, while both factors here are individually stable.
bool check_disabled_tracing_overhead() {
  CETA_EXPECTS(!obs::Tracer::enabled(),
               "overhead check requires tracing disabled");
  const TaskGraph g = make_graph(35, 1);
  const TaskId sink = g.sinks().front();
  DisparityOptions pdiff;
  pdiff.method = DisparityMethod::kIndependent;
  const auto session = [&] {
    const AnalysisEngine engine(g);
    benchmark::DoNotOptimize(engine.disparity(sink, pdiff));
    benchmark::DoNotOptimize(engine.disparity(sink));
  };

  // Cost of one disabled span, amortized over a tight loop (with the two
  // annotation calls the instrumented hot paths make).
  constexpr int kSpanIters = 2'000'000;
  const double span_ns = time_ns(
                             [&] {
                               for (int i = 0; i < kSpanIters; ++i) {
                                 obs::Span s("bench", "probe");
                                 s.arg("k", std::int64_t{1});
                                 s.arg("c", "hit");
                                 benchmark::DoNotOptimize(s);
                               }
                             },
                             3) /
                         kSpanIters;

  // Spans one analysis session emits: trace a single run in memory.
  obs::Tracer::global().start();
  session();
  const std::size_t spans = obs::Tracer::global().pending_events();
  (void)obs::Tracer::global().stop_to_string();  // drain + disable

  const double session_ns = time_ns(session, 20);
  const double overhead = (static_cast<double>(spans) * span_ns) / session_ns;
  std::cout << "disabled-tracing overhead: " << spans << " spans x "
            << span_ns << " ns / " << session_ns << " ns = "
            << overhead * 100.0 << "% (budget 2%)\n";
  return overhead < 0.02;
}

}  // namespace

int main(int argc, char** argv) {
  ceta::bench::maybe_start_profile_trace(argc > 0 ? argv[0] : nullptr);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_engine_comparison("BENCH_engine.json");
  if (!write_pairwise_comparison("BENCH_pairwise.json")) {
    std::cerr << "FAIL: pairwise kernel diverges from the reference\n";
    return 1;
  }
  if (!write_incremental_comparison("BENCH_incremental.json")) {
    std::cerr << "FAIL: incremental engine diverges from fresh rebuilds\n";
    return 1;
  }
  if (!write_dagdp_comparison("BENCH_dagdp.json")) {
    std::cerr << "FAIL: DAG-DP backend diverges from the enumerating kernel\n";
    return 1;
  }
  if (!ceta::obs::Tracer::enabled() && !check_disabled_tracing_overhead()) {
    std::cerr << "FAIL: disabled tracing exceeds the 2% overhead budget\n";
    return 1;
  }
  return 0;
}
