// cetabench — one benchmark run of one workload, on one thread.
//
//   cetabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Replays the workload's seeded set-up steps and ops in rounds for
// `--seconds`, checks every op's output, and prints a diagnostics line and
// then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 odd
// rounds record spans and the metrics are the per-layer ones.  NOTES.md
// defines every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace {

using namespace cetabench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cetabench: " << why
            << "\nusage: cetabench --workload <system_verdict|large_dag|"
               "design_session|design_search> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file <path>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--trace-file") {
        a.trace_file = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "system_verdict") return make_system_verdict(seed);
  if (name == "large_dag") return make_large_dag(seed);
  if (name == "design_session") return make_design_session(seed);
  if (name == "design_search") return make_design_search(seed);
  usage("unknown workload " + name);
}

/// A `Key:` line of /proc/self/status, first number (kB for Vm* keys).
long proc_status(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::atol(line.c_str() + key.size() + 1);
    }
  }
  return -1;
}

/// Steal ticks of all CPUs (8th field of the `cpu` line of /proc/stat).
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  in >> cpu;
  for (long long& x : v) in >> x;
  return in ? v[7] : -1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: exactly n·(1 − q/100) values lie beyond it
/// when that product is whole.
double percentile(std::vector<double> v, int q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(q) / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest whole percentile with at least ten ops beyond it.
int tail_percentile(std::size_t n) {
  if (n < 20) return 50;
  return static_cast<int>(
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
}

double min_of(const std::vector<std::int64_t>& v) {
  return static_cast<double>(*std::min_element(v.begin(), v.end()));
}

double median_of(const std::vector<std::int64_t>& v) {
  return median(std::vector<double>(v.begin(), v.end()));
}

/// Host-speed probe, a diagnostic only: a fixed kernel of the benchmark's
/// own code (fill and probe a fresh 2000-entry std::unordered_map, best of
/// three) timed at most every 250 ms between steps.  Its spread over a run
/// shows how much the host's speed moved meanwhile (NOTES.md).
class HostProbe {
 public:
  void maybe_sample() {
    const std::int64_t now = now_ns();
    if (!samples_.empty() && now - last_ns_ < 250'000'000) return;
    std::int64_t best = INT64_MAX;
    for (int rep = 0; rep < 3; ++rep) best = std::min(best, once());
    samples_.push_back(static_cast<double>(best));
    last_ns_ = now_ns();
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::int64_t once() {
    const std::int64_t t0 = now_ns();
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 2000; ++i) m[i * 0x9e3779b97f4a7c15ull] = i;
    for (std::uint64_t i = 0; i < 2000; ++i) sink_ += m.count(i * 0x9e3779b97f4a7c15ull);
    return now_ns() - t0;
  }

  std::vector<double> samples_;
  std::int64_t last_ns_ = 0;
  std::uint64_t sink_ = 0;
};

/// Least-squares slope of log(y) against log(x).
double loglog_slope(const std::vector<std::pair<double, double>>& xy) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (const auto& [x, y] : xy) {
    if (x <= 0 || y <= 0) continue;
    const double lx = std::log(x), ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  if (n < 2) return 0.0;
  const double den = static_cast<double>(n) * sxx - sx * sx;
  return den == 0.0 ? 0.0 : (static_cast<double>(n) * sxy - sx * sy) / den;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + fmt(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

double count_of(const Counts& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Per-layer metrics, in output order: span-derived times (µs per round,
/// summed over steps of each step's best-of-rounds self time), counts of
/// one round, the ratios derived from them, and the scaling exponents.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerTimes[] = {
    {"graph.parse_us", "us"},        {"graph.serialize_us", "us"},
    {"waters.generate_us", "us"},    {"sched.rta_us", "us"},
    {"chain.enumerate_us", "us"},    {"chain.bounds_us", "us"},
    {"disparity.kernel_us", "us"},   {"disparity.dp_us", "us"},
    {"disparity.design_us", "us"},   {"engine.build_us", "us"},
    {"engine.pareto_us", "us"},      {"engine.sensitivity_us", "us"},
    {"engine.offset_plan_us", "us"}, {"sim.mc_us", "us"},
    {"explore.run_us", "us"},        {"service.create_us", "us"},
    {"service.disparity_us", "us"},  {"service.latency_us", "us"},
    {"service.mutate_us", "us"},     {"service.other_us", "us"},
    {"bench.other_us", "us"},
};
constexpr LayerMetric kLayerCounts[] = {
    {"graph.tasks", "count"},         {"graph.edges", "count"},
    {"chain.chains", "count"},        {"disparity.pairs", "count"},
    {"disparity.dp_queries", "count"}, {"disparity.dp_inexact", "count"},
    {"engine.stale_evictions", "count"}, {"engine.commits", "count"},
    {"engine.rta_refreshed_tasks", "count"}, {"sim.events", "count"},
    {"sim.jobs", "count"},            {"sim.violations", "count"},
    {"explore.proposed", "count"},    {"explore.accepted", "count"},
    {"explore.rolled_back", "count"}, {"explore.evaluations", "count"},
    {"explore.front_size", "count"},  {"service.reply_bytes", "bytes"},
    {"service.pushes", "count"},      {"service.errors", "count"},
};

std::vector<Metric> derived_counts(const Counts& c) {
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerCounts) {
    out.push_back({m.name, count_of(c, m.name), m.unit});
  }
  const double hits = count_of(c, "engine.report_hits");
  const double misses = count_of(c, "engine.report_misses");
  out.push_back({"engine.report_hit_ratio", ratio(hits, hits + misses),
                 "ratio"});
  const double survived = count_of(c, "engine.survived_hits");
  const double stale = count_of(c, "engine.stale_evictions");
  out.push_back({"engine.retention", ratio(survived, survived + stale),
                 "ratio"});
  out.push_back({"explore.accept_ratio",
                 ratio(count_of(c, "explore.accepted"),
                       count_of(c, "explore.proposed")),
                 "ratio"});
  out.push_back({"sim.tightness",
                 ratio(count_of(c, "sim.tightness_sum"),
                       count_of(c, "sim.runs")),
                 "ratio"});
  const double base = count_of(c, "disparity.design_baseline_ns");
  out.push_back({"disparity.design_gain",
                 ratio(base - count_of(c, "disparity.design_optimized_ns"),
                       base),
                 "ratio"});
  return out;
}

std::string layer_of(const char* span_name) {
  const std::string s = span_name;
  if (s == "service.subscribe" || s == "service.drop") return "service.other";
  return s;
}

struct RunRecord {
  std::size_t rounds = 0;
  std::size_t traced_rounds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  bool counts_stable = true;
  Counts counts;
  std::vector<std::vector<std::int64_t>> op_ns;      // untraced rounds
  std::vector<std::vector<std::int64_t>> traced_ns;  // traced rounds
  std::vector<std::vector<std::int64_t>> write_ns;   // untraced rounds
  std::vector<std::vector<std::int64_t>> setup_ns;   // untraced rounds
  HostProbe probe;
};

void note_failure(RunRecord& rec, const std::string& what) {
  ++rec.failed;
  if (rec.failures.size() < 8) rec.failures.push_back(what);
}

RunRecord run_rounds(Workload& w, const Args& args, SpanLog& log) {
  const std::size_t n_ops = w.num_ops();
  const std::size_t n_setup = w.num_setup_steps();
  RunRecord rec;
  rec.op_ns.resize(n_ops);
  rec.traced_ns.resize(n_ops);
  rec.write_ns.resize(n_ops);
  rec.setup_ns.resize(n_setup);
  std::vector<std::uint64_t> digest0(n_ops, 0);
  StepContext ctx{log};

  // At least three untraced rounds (round 0 carries the output checks);
  // a traced run also needs two traced ones.
  const std::size_t min_rounds = args.trace ? 5 : 3;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t round = 0;; ++round) {
    if (round >= min_rounds && now_ns() >= deadline) break;
    const bool traced = args.trace && round % 2 == 1;
    log.set_enabled(traced);
    const auto r = static_cast<std::int32_t>(round);
    w.begin_round();
    for (std::size_t i = 0; i < n_setup; ++i) {
      rec.probe.maybe_sample();
      log.set_step(static_cast<std::int32_t>(n_ops + i), r);
      const std::int64_t t0 = now_ns();
      log.span("bench.other", [&] { w.setup_step(i, ctx); });
      const std::int64_t dt = now_ns() - t0;
      if (!traced) rec.setup_ns[i].push_back(dt);
    }
    Counts counts;
    for (std::size_t i = 0; i < n_ops; ++i) {
      rec.probe.maybe_sample();
      log.set_step(static_cast<std::int32_t>(i), r);
      ctx.write_ns = -1;
      ++rec.attempted;
      OpOutcome out;
      try {
        const std::int64_t t0 = now_ns();
        log.span("bench.other", [&] { w.run_op(i, ctx); });
        const std::int64_t dt = now_ns() - t0;
        (traced ? rec.traced_ns : rec.op_ns)[i].push_back(dt);
        if (!traced && ctx.write_ns >= 0) rec.write_ns[i].push_back(ctx.write_ns);
        out = w.observe_op(i, counts, round == 0);
      } catch (const std::exception& e) {
        out.ok = false;
        out.failure = std::string("exception: ") + e.what();
      }
      if (!out.ok) {
        note_failure(rec, "op " + std::to_string(i) + ": " + out.failure);
      } else if (round == 0) {
        digest0[i] = out.digest;
      } else if (out.digest != digest0[i]) {
        note_failure(rec, "op " + std::to_string(i) + ": output of round " +
                              std::to_string(round) + " differs from round 0");
      }
    }
    if (round == 0) {
      rec.counts = counts;
    } else if (counts != rec.counts) {
      rec.counts_stable = false;
    }
    ++rec.rounds;
    if (traced) ++rec.traced_rounds;
  }
  log.set_enabled(false);
  return rec;
}

/// Best-of-rounds self time per (step, layer), from the traced rounds.
std::map<std::pair<std::int32_t, std::string>, double> best_self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> child(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::tuple<std::int32_t, std::string, std::int32_t>, double> per;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    per[{s.step, layer_of(s.name), s.round}] +=
        static_cast<double>(s.end_ns - s.start_ns - child[i]);
  }
  std::map<std::pair<std::int32_t, std::string>, double> best;
  for (const auto& [key, ns] : per) {
    const auto k = std::make_pair(std::get<0>(key), std::get<1>(key));
    const auto it = best.find(k);
    if (it == best.end() || ns < it->second) best[k] = ns;
  }
  return best;
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"step\":" << s.step << ",\"round\":" << s.round << "}\n";
  }
  if (!out) std::cerr << "cetabench: could not write " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const long long steal0 = steal_ticks();
  const std::int64_t wall0 = now_ns();

  std::unique_ptr<Workload> w;
  RunRecord rec;
  SpanLog log;
  std::string fatal;
  try {
    w = make_workload(args.workload, args.seed);
    rec = run_rounds(*w, args, log);
  } catch (const std::exception& e) {
    fatal = e.what();
  }
  if (!fatal.empty() || rec.attempted == 0) {
    std::cerr << "cetabench: " << args.workload << " failed: " << fatal << "\n";
    return 1;
  }

  const long threads = proc_status("Threads");
  const double peak_rss_mib = static_cast<double>(proc_status("VmHWM")) / 1024.0;
  const long long steal1 = steal_ticks();
  bool correct = rec.failed == 0 && rec.counts_stable && threads == 1;
  if (!rec.counts_stable) rec.failures.push_back("work counts differ between rounds");
  if (threads != 1) {
    rec.failures.push_back("process ran " + std::to_string(threads) +
                           " threads, want 1");
  }

  // An op that threw in every untraced round has no time; it is counted
  // in `failed` and left out of the timing metrics.
  const std::size_t n_ops = w->num_ops();
  std::vector<double> best_us, write_us, gaps, setup_gaps;
  double total_best_s = 0.0, setup_s = 0.0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    if (rec.op_ns[i].empty()) continue;
    best_us.push_back(min_of(rec.op_ns[i]) / 1e3);
    total_best_s += best_us.back() / 1e6;
    gaps.push_back(median_of(rec.op_ns[i]) / 1e3 / best_us.back() - 1.0);
    if (!rec.write_ns[i].empty()) write_us.push_back(min_of(rec.write_ns[i]) / 1e3);
  }
  for (const auto& v : rec.setup_ns) {
    setup_s += min_of(v) / 1e9;
    setup_gaps.push_back(median_of(v) / min_of(v) - 1.0);
  }
  const int tail_q = tail_percentile(best_us.size());
  const std::vector<double>& probe = rec.probe.samples();

  std::vector<Metric> metrics;
  std::ostringstream diag;
  diag << "{\"diagnostics\": {\"workload\": " << json_string(args.workload)
       << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"rounds\": " << rec.rounds << ", \"ops\": " << n_ops
       << ", \"setup_steps\": " << w->num_setup_steps()
       << ", \"tail_percentile\": " << tail_q
       << ", \"wall_s\": " << fmt(static_cast<double>(now_ns() - wall0) / 1e9)
       << ", \"steal_ticks\": " << (steal0 < 0 || steal1 < 0 ? -1 : steal1 - steal0)
       << ", \"op_round_gap_pct\": " << fmt(100.0 * median(gaps))
       << ", \"setup_round_gap_pct\": " << fmt(100.0 * median(setup_gaps))
       << ", \"threads\": " << threads;

  diag << ", \"host_probe_us\": {\"samples\": " << probe.size()
       << ", \"median\": " << fmt(median(probe) / 1e3) << ", \"max_over_min\": "
       << fmt(*std::max_element(probe.begin(), probe.end()) /
              *std::min_element(probe.begin(), probe.end()))
       << "}";
  if (!args.trace) {
    metrics = {
        {"latency_us_p50", median(best_us), "us"},
        {"latency_us_tail", percentile(best_us, tail_q), "us"},
        {"throughput_per_s", static_cast<double>(best_us.size()) / total_best_s, "1/s"},
        {"write_latency_us_p50", median(write_us), "us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
        {"ok_ratio",
         1.0 - static_cast<double>(rec.failed) / static_cast<double>(rec.attempted),
         "ratio"},
    };
  } else {
    const auto best = best_self_times(log.spans());
    std::map<std::string, double> layer_us;
    for (const auto& [key, ns] : best) layer_us[key.second] += ns / 1e3;
    double total_us = 0.0;
    for (const LayerMetric& m : kLayerTimes) {
      std::string stem = m.name;
      stem.resize(stem.size() - 3);  // drop "_us"
      const double us = layer_us[stem];
      total_us += us;
      metrics.push_back({m.name, us, m.unit});
    }
    for (Metric& m : derived_counts(rec.counts)) metrics.push_back(std::move(m));

    // Scaling exponents over the size ladder (large_dag only).
    const auto slope = [&](const char* layer) {
      std::vector<std::pair<double, double>> xy;
      for (std::size_t i = 0; i < n_ops; ++i) {
        if (!w->on_ladder(i)) continue;
        const auto it = best.find({static_cast<std::int32_t>(i), layer});
        if (it != best.end()) {
          xy.emplace_back(static_cast<double>(w->op_tasks(i)), it->second);
        }
      }
      return loglog_slope(xy);
    };
    metrics.push_back({"graph.parse_exponent", slope("graph.parse"), "slope"});
    metrics.push_back({"sched.rta_exponent", slope("sched.rta"), "slope"});
    metrics.push_back({"disparity.dp_exponent", slope("disparity.dp"), "slope"});

    // Tracing overhead: traced against untraced rounds of the same run.
    double traced_s = 0.0;
    double untraced_s = 0.0;
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (rec.traced_ns[i].empty() || rec.op_ns[i].empty()) continue;
      traced_s += min_of(rec.traced_ns[i]) / 1e9;
      untraced_s += min_of(rec.op_ns[i]) / 1e9;
    }
    metrics.push_back(
        {"trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%"});

    diag << ", \"traced_rounds\": " << rec.traced_rounds << ", \"spans\": "
         << log.spans().size() << ", \"layer_share_pct\": {";
    bool first = true;
    for (const auto& [layer, us] : layer_us) {
      diag << (first ? "" : ", ") << json_string(layer) << ": "
           << fmt(100.0 * us / total_us);
      first = false;
    }
    diag << "}";
    if (!args.trace_file.empty()) write_spans(args.trace_file, log.spans());
  }

  diag << ", \"counts\": {";
  bool first = true;
  for (const auto& [k, v] : rec.counts) {
    diag << (first ? "" : ", ") << json_string(k) << ": " << fmt(v);
    first = false;
  }
  diag << "}, \"failures\": [";
  for (std::size_t i = 0; i < rec.failures.size(); ++i) {
    diag << (i ? ", " : "") << json_string(rec.failures[i]);
  }
  diag << "]}}";
  std::cout << diag.str() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rec.attempted
            << ", \"failed\": " << rec.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}
