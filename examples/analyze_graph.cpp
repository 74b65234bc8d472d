// Full analysis of a cause-effect graph loaded from the ceta text format:
// response times, per-ECU utilization, end-to-end latency bounds per
// chain, worst-case time disparity (P-diff and S-diff) for every task that
// fuses two or more chains, and a buffer-design suggestion.
//
// Usage:
//   analyze_graph <graph.txt> [--sim SECONDS] [--dot]
//                 [--require <task>=<ms> ...]
//                 [--trace PATH] [--metrics PATH]
//   analyze_graph --demo [--sim SECONDS] [--dot] [--require fuse=200]
//
// --trace writes a Chrome-trace JSON (load in https://ui.perfetto.dev or
// chrome://tracing) of the whole run; CETA_TRACE=<path> in the
// environment does the same without the flag.  --metrics writes a JSON
// snapshot of the engine's cache counters plus the process-wide registry.
//
// --require checks a worst-case disparity budget for a task and, if
// violated, applies the buffer-design remedy of §IV automatically.
//
// Graph format (see graph/serialize.hpp):
//   task <name> <wcet_ns> <bcet_ns> <period_ns> <offset_ns> <prio> <ecu>
//   edge <from> <to> [buffer_size]

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "chain/critical.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/requirements.hpp"
#include "experiments/table.hpp"
#include "graph/dot.hpp"
#include "graph/paths.hpp"
#include "graph/serialize.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace {

const char* kDemoGraph = R"(# demo: two sensors fused, then actuated
task camera  0       0       33000000  0 0 -1
task lidar   0       0       100000000 0 0 -1
task detect  8000000 4000000 33000000  0 0 0
task cloud   20000000 9000000 100000000 0 0 1
task fuse    5000000 2000000 50000000  0 0 2
task act     2000000 1000000 10000000  0 1 2
edge camera detect
edge lidar cloud
edge detect fuse
edge cloud fuse
edge fuse act
)";

std::string chain_to_string(const ceta::TaskGraph& g, const ceta::Path& p) {
  std::string out;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i) out += " -> ";
    out += g.task(p[i]).name;
  }
  return out;
}

/// --metrics: engine cache counters + the process-wide registry, one JSON
/// document.
void write_metrics_file(const std::string& path,
                        const ceta::AnalysisEngine& engine) {
  std::ofstream out(path);
  if (!out) throw ceta::Error("cannot open metrics file '" + path + "'");
  ceta::obs::JsonWriter w(out);
  w.begin_object();
  w.key("engine");
  engine.metrics().write_json(w);
  w.key("global");
  ceta::obs::MetricsRegistry::global().snapshot().write_json(w);
  w.end_object();
  w.done();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceta;

  std::string path;
  bool demo = false;
  bool dot = false;
  long sim_seconds = 5;
  std::string trace_path;
  std::string metrics_path;
  std::vector<std::pair<std::string, long>> requirements;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--sim" && i + 1 < argc) {
      sim_seconds = std::atol(argv[++i]);
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--require" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--require expects <task>=<ms>\n";
        return 2;
      }
      requirements.emplace_back(spec.substr(0, eq),
                                std::atol(spec.c_str() + eq + 1));
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "usage: " << argv[0]
                << " <graph.txt> | --demo  [--sim SECONDS] [--dot]"
                   " [--require task=ms ...] [--trace PATH]"
                   " [--metrics PATH]\n";
      return 2;
    }
  }
  if (!demo && path.empty()) {
    std::cerr << "no input graph; try --demo\n";
    return 2;
  }

  if (!trace_path.empty()) {
    // CETA_TRACE may already have started the tracer (and registered its
    // export-at-exit hook); --trace then just re-points the output path.
    const bool env_active = obs::Tracer::enabled();
    obs::Tracer::global().start(trace_path);
    if (!env_active) {
      std::atexit([] { (void)obs::Tracer::global().stop(); });
    }
  }

  std::string text;
  if (demo) {
    text = kDemoGraph;
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open '" << path << "'\n";
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  TaskGraph g;
  try {
    g = graph_from_text(text);
    g.validate();
  } catch (const Error& e) {
    std::cerr << "invalid graph: " << e.what() << '\n';
    return 1;
  }
  if (dot) {
    std::cout << to_dot(g) << '\n';
  }

  // One engine serves every analysis below; the RTA, chain sets and chain
  // bounds are computed once and shared.
  const AnalysisEngine engine(g);
  const RtaResult& rta = engine.rta();
  ConsoleTable sched({"task", "T", "WCET", "R", "status"});
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const Task& t = g.task(id);
    sched.add_row({t.name, to_string(t.period), to_string(t.wcet),
                   rta.response_time[id] == Duration::max()
                       ? "inf"
                       : to_string(rta.response_time[id]),
                   rta.schedulable[id] ? "ok" : "MISS"});
  }
  std::cout << "Schedulability (non-preemptive fixed priority):\n";
  sched.print(std::cout);
  const EcuIndex ecus(g);
  for (const EcuId ecu : ecus.ecus()) {
    std::cout << "  ECU " << ecu << " utilization: "
              << fmt_percent(resource_utilization(g, ecus.members(ecu)))
              << '\n';
  }
  if (!rta.all_schedulable) {
    std::cerr << "\ngraph is not schedulable; disparity bounds need finite "
                 "response times\n";
    return 1;
  }

  // Per-chain latency bounds to each sink; the critical (max-WCBT) chain
  // per sink is starred.
  std::cout << "\nEnd-to-end chains (* = critical):\n";
  ConsoleTable lat({"chain", "WCBT", "BCBT", "max age", "max reaction"});
  for (const TaskId sink : g.sinks()) {
    const CriticalChain crit = critical_chain(g, sink, rta.response_time);
    for (const Path& chain : engine.chains(sink)) {
      const LatencyReport r = engine.latency(chain);
      const bool is_critical = chain == crit.chain;
      lat.add_row({chain_to_string(g, chain) + (is_critical ? " *" : ""),
                   to_string(r.backward.wcbt), to_string(r.backward.bcbt),
                   to_string(r.max_data_age),
                   to_string(r.max_reaction_time)});
    }
  }
  lat.print(std::cout);

  // Disparity of every fusing task.
  std::cout << "\nWorst-case time disparity (fusing tasks):\n";
  ConsoleTable disp({"task", "chains", "P-diff", "S-diff", "optimized",
                     "buffers"});
  // The P-diff and S-diff passes share the engine's cached chain bounds.
  const std::vector<TaskId> fusing = engine.fusing_tasks();
  DisparityOptions popt;
  popt.method = DisparityMethod::kIndependent;
  for (const TaskId id : fusing) {
    const DisparityReport preport = engine.disparity(id, popt);
    const DisparityReport sreport = engine.disparity(id);
    const MultiBufferDesign d = engine.optimize_buffers(id);
    std::string buffers;
    for (const ChannelBuffer& cb : d.channels) {
      if (!buffers.empty()) buffers += ", ";
      buffers += g.task(cb.from).name + "->" + g.task(cb.to).name + ":" +
                 std::to_string(cb.buffer_size);
    }
    if (buffers.empty()) buffers = "-";
    disp.add_row({g.task(id).name, std::to_string(sreport.chains.size()),
                  to_string(preport.worst_case), to_string(sreport.worst_case),
                  to_string(d.optimized_bound), buffers});
  }
  if (!fusing.empty()) {
    disp.print(std::cout);
  } else {
    std::cout << "  (no task fuses two or more source chains)\n";
  }

  // Requirement verification with automatic buffer remediation.
  if (!requirements.empty()) {
    std::vector<DisparityRequirement> reqs;
    for (const auto& [name, ms] : requirements) {
      bool found = false;
      for (TaskId id = 0; id < g.num_tasks(); ++id) {
        if (g.task(id).name == name) {
          reqs.push_back({id, Duration::ms(ms)});
          found = true;
          break;
        }
      }
      if (!found) {
        std::cerr << "--require: unknown task '" << name << "'\n";
        return 2;
      }
    }
    const RequirementsReport rr =
        verify_disparity_requirements(g, reqs, rta.response_time);
    std::cout << "\nRequirements:\n";
    for (const RequirementOutcome& out : rr.outcomes) {
      std::cout << "  " << g.task(out.requirement.task).name << " <= "
                << to_string(out.requirement.max_disparity) << ": ";
      switch (out.status) {
        case RequirementStatus::kSatisfied:
          std::cout << "satisfied (bound " << to_string(out.bound) << ")";
          break;
        case RequirementStatus::kFixedByBuffers: {
          std::cout << "violated (bound " << to_string(out.bound)
                    << ") -> fixed by buffers:";
          for (const ChannelBuffer& cb : out.buffers) {
            std::cout << ' ' << g.task(cb.from).name << "->"
                      << g.task(cb.to).name << ":" << cb.buffer_size;
          }
          std::cout << " (new bound " << to_string(out.final_bound) << ")";
          break;
        }
        case RequirementStatus::kViolated:
          std::cout << "VIOLATED (bound " << to_string(out.final_bound)
                    << ")";
          break;
      }
      std::cout << '\n';
    }
    if (!rr.all_satisfied) return 1;
  }

  // Optional simulation cross-check of every fusing task.
  if (sim_seconds > 0) {
    SimOptions sopt;
    sopt.duration = Duration::s(sim_seconds);
    const SimResult res = Simulator(g, sopt).run();
    std::cout << "\nSimulation (" << sim_seconds
              << "s, uniform execution times):\n";
    bool safe = true;
    for (const TaskId id : fusing) {
      const Duration bound = engine.disparity(id).worst_case;  // cache hit
      std::cout << "  " << g.task(id).name << ": measured "
                << to_string(res.max_disparity[id]) << "  (bound "
                << to_string(bound) << ")\n";
      safe = safe && res.max_disparity[id] <= bound;
    }
    if (!safe) {
      std::cerr << "BOUND VIOLATION — please report this as a bug\n";
      return 1;
    }
  }

  if (!metrics_path.empty()) {
    write_metrics_file(metrics_path, engine);
    std::cout << "\nmetrics written to " << metrics_path << '\n';
  }
  return 0;
}
