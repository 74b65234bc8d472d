// verify_bounds — the differential-verification CLI.
//
//   verify_bounds [--trials N] [--seed N] [--probes N]
//                 [--min-tasks N] [--max-tasks N] [--ecus N]
//                 [--shrink | --no-shrink] [--fixture-dir PATH]
//                 [--inject-fault] [--inject-stale-cache]
//                 [--inject-dp-fault] [--inject-mc-fault]
//                 [--inject-explore-fault] [--inject-pfp-fault]
//                 [--inject-edf-fault]
//                 [--trace PATH] [--metrics PATH] [--quiet]
//
// Draws N seeded random WATERS instances, checks every cross-implementation
// invariant (see DESIGN.md §7) on each, shrinks any violation to a minimal
// graph and writes it as a reloadable fixture.  Exit status: 0 when every
// drawn graph satisfied every invariant, 1 on violations, 2 on usage
// errors.  The fixed-seed ctest smoke run is exactly
// `verify_bounds --trials 200 --seed 42`.
//
// --inject-fault enables the test-only off-by-one mutation (one head
// period subtracted from every analytical upper bound) to demonstrate the
// harness catching and shrinking an unsound bound; it makes a nonzero
// exit the expected outcome.  --inject-stale-cache instead makes the
// engine skip the report invalidation of buffer resizes (EngineOptions::
// fault_skip_edge_invalidation), which the incremental_matches_fresh
// property must catch; nonzero exit expected likewise.  --inject-dp-fault
// corrupts the DAG-DP combination step (DagDpOptions::
// fault_drop_source_period), which dag_dp_matches_enumeration must catch.
// --inject-mc-fault inflates every Monte-Carlo disparity sample 1000x
// (MonteCarloOptions::fault_scale_samples), which
// montecarlo_within_bounds must catch.  --inject-explore-fault makes the
// design-space explorer skip one engine rollback
// (ExploreOptions::fault_skip_rollback), which
// explored_configs_revalidate must catch.  --inject-pfp-fault drops the
// largest higher-priority interferer from every preemptive busy-window
// fixpoint (RtaOptions::fault_drop_largest_hp) and --inject-edf-fault
// shaves one job off every EDF deadline-capped interference term
// (RtaOptions::fault_edf_undercount); rta_policy_matches_sim must catch
// both on its mixed-policy twins.

#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "verify/fixture.hpp"
#include "verify/property_checker.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--trials N] [--seed N] [--probes N] [--min-tasks N]"
         " [--max-tasks N]\n"
         "       [--ecus N] [--shrink | --no-shrink] [--fixture-dir PATH]\n"
         "       [--inject-fault] [--inject-stale-cache] [--inject-dp-fault]\n"
         "       [--inject-mc-fault] [--inject-explore-fault]\n"
         "       [--inject-pfp-fault] [--inject-edf-fault]\n"
         "       [--trace PATH] [--metrics PATH] [--quiet]\n";
  return 2;
}

void write_metrics_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ceta::Error("cannot open metrics file '" + path + "'");
  ceta::obs::JsonWriter w(out);
  w.begin_object();
  w.key("global");
  ceta::obs::MetricsRegistry::global().snapshot().write_json(w);
  w.end_object();
  w.done();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceta::verify;
  CheckerOptions opt;
  std::string fixture_dir;
  std::string trace_path;
  std::string metrics_path;
  bool quiet = false;

  const auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--trials") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        opt.trials = std::stoul(v);
      } else if (arg == "--seed") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        opt.seed = std::stoull(v);
      } else if (arg == "--probes") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        opt.offset_probes = std::stoul(v);
      } else if (arg == "--min-tasks") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        opt.min_tasks = std::stoul(v);
      } else if (arg == "--max-tasks") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        opt.max_tasks = std::stoul(v);
      } else if (arg == "--ecus") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        opt.num_ecus = std::stoi(v);
      } else if (arg == "--shrink") {
        opt.shrink = true;
      } else if (arg == "--no-shrink") {
        opt.shrink = false;
      } else if (arg == "--fixture-dir") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        fixture_dir = v;
      } else if (arg == "--inject-fault") {
        opt.probe.fault = FaultInjection::kDropHeadPeriod;
      } else if (arg == "--inject-stale-cache") {
        opt.probe.fault = FaultInjection::kSkipInvalidation;
      } else if (arg == "--inject-dp-fault") {
        opt.probe.fault = FaultInjection::kCorruptDpSummary;
      } else if (arg == "--inject-mc-fault") {
        opt.probe.fault = FaultInjection::kCorruptMcSamples;
      } else if (arg == "--inject-explore-fault") {
        opt.probe.fault = FaultInjection::kSkipExploreRollback;
      } else if (arg == "--inject-pfp-fault") {
        opt.probe.fault = FaultInjection::kDropPreemptiveInterference;
      } else if (arg == "--inject-edf-fault") {
        opt.probe.fault = FaultInjection::kEdfUndercount;
      } else if (arg == "--trace") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        trace_path = v;
      } else if (arg == "--metrics") {
        const char* v = next_arg(i);
        if (!v) return usage(argv[0]);
        metrics_path = v;
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        std::cerr << "unknown argument '" << arg << "'\n";
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      std::cerr << "malformed value for '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  try {
    if (!trace_path.empty()) ceta::obs::Tracer::global().start(trace_path);

    PropertyChecker checker(opt);
    const CheckerReport report = checker.run();

    if (!trace_path.empty()) ceta::obs::Tracer::global().stop();
    if (!metrics_path.empty()) write_metrics_file(metrics_path);

    const CheckerStats& s = report.stats;
    if (!quiet) {
      std::cout << "verify_bounds: " << s.trials << " trials (seed "
                << opt.seed << "), " << s.graphs_checked
                << " admissible graphs, " << s.properties_checked
                << " property evaluations\n"
                << "  skipped: " << s.skipped_unschedulable
                << " unschedulable, " << s.skipped_degenerate
                << " degenerate, " << s.skipped_capacity << " capacity, "
                << s.skipped_other << " other\n";
    }
    for (std::size_t i = 0; i < report.violations.size(); ++i) {
      const Violation& v = report.violations[i];
      std::cout << violation_report(v);
      if (!fixture_dir.empty()) {
        const std::string path = write_fixture_file(fixture_dir, v, i);
        std::cout << "  fixture:   " << path << '\n';
      }
    }
    if (report.ok()) {
      if (!quiet) std::cout << "all invariants hold\n";
      return 0;
    }
    std::cout << report.violations.size() << " invariant violation(s)\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "verify_bounds: fatal: " << e.what() << '\n';
    return 2;
  }
}
