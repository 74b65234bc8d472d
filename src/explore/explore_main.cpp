// explore — the design-space exploration CLI.
//
//   explore [--len-a N] [--len-b N] [--ecus N] [--waters-seed S]
//           [--seed S] [--moves N] [--restarts N] [--threads N]
//           [--strategy hill|anneal|portfolio] [--objective analyzer|exact]
//           [--max-buffer N] [--offset-grid N] [--no-audsley]
//           [--json PATH] [--quiet]
//
// Builds the merged two-chain WATERS instance (merge_chains_at_sink with
// WATERS-profile parameters; --waters-seed is scanned forward until the
// instance is schedulable), seeds priorities with the engine-level Audsley
// helper, runs one explore() campaign against the sink, and prints the
// resulting Pareto front (disparity / data age / memory, each entry's
// delta size) plus the campaign counters.  --json additionally dumps the
// full front — including the replayable deltas — as one JSON document.
// Exit status: 0 on success, 2 on usage errors.

#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/incremental.hpp"
#include "explore/explorer.hpp"
#include "graph/generator.hpp"
#include "obs/json_writer.hpp"
#include "waters/generator.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--len-a N] [--len-b N] [--ecus N] [--waters-seed S]\n"
         "       [--seed S] [--moves N] [--restarts N] [--threads N]\n"
         "       [--strategy hill|anneal|portfolio]"
         " [--objective analyzer|exact]\n"
         "       [--max-buffer N] [--offset-grid N] [--no-audsley]\n"
         "       [--json PATH] [--quiet]\n";
  return 2;
}

void write_json(const std::string& path, const ceta::TaskGraph& g,
                ceta::TaskId sink, std::uint64_t waters_seed,
                const ceta::explore::ExploreOptions& opt,
                const ceta::explore::ExploreResult& result) {
  std::ofstream out(path);
  if (!out) throw ceta::Error("cannot open json file '" + path + "'");
  ceta::obs::JsonWriter w(out);
  w.begin_object();
  w.member("tasks", static_cast<std::uint64_t>(g.num_tasks()));
  w.member("sink", static_cast<std::uint64_t>(sink));
  w.member("waters_seed", waters_seed);
  w.member("seed", opt.seed);
  w.member("moves_per_restart", static_cast<std::uint64_t>(opt.moves_per_restart));
  w.member("restarts", static_cast<std::uint64_t>(opt.restarts));
  w.key("start");
  w.begin_object();
  w.member("disparity_ns", result.start.disparity.count());
  w.member("data_age_ns", result.start.data_age.count());
  w.member("memory", result.start.memory);
  w.end_object();
  w.key("front");
  w.begin_array();
  for (const ceta::explore::ArchiveEntry& e : result.archive) {
    w.begin_object();
    w.member("disparity_ns", e.objectives.disparity.count());
    w.member("data_age_ns", e.objectives.data_age.count());
    w.member("memory", e.objectives.memory);
    w.member("key", e.key);
    w.member("epoch", e.epoch);
    w.key("priorities");
    w.begin_array();
    for (const auto& [task, prio] : e.delta.priorities) {
      w.begin_object();
      w.member("task", static_cast<std::uint64_t>(task));
      w.member("priority", prio);
      w.end_object();
    }
    w.end_array();
    w.key("offsets");
    w.begin_array();
    for (const auto& [task, off] : e.delta.offsets) {
      w.begin_object();
      w.member("task", static_cast<std::uint64_t>(task));
      w.member("offset_ns", off.count());
      w.end_object();
    }
    w.end_array();
    w.key("buffers");
    w.begin_array();
    for (const auto& b : e.delta.buffers) {
      w.begin_object();
      w.member("from", static_cast<std::uint64_t>(b.from));
      w.member("to", static_cast<std::uint64_t>(b.to));
      w.member("buffer_size", b.buffer_size);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("stats");
  w.begin_object();
  w.member("proposed", result.stats.proposed);
  w.member("invalid", result.stats.invalid);
  w.member("accepted", result.stats.accepted);
  w.member("rolled_back", result.stats.rolled_back);
  w.member("unschedulable", result.stats.unschedulable);
  w.member("evaluations", result.stats.evaluations);
  w.member("archive_inserts", result.stats.archive_inserts);
  w.member("archive_evictions", result.stats.archive_evictions);
  w.member("archive_rejects", result.stats.archive_rejects);
  w.end_object();
  w.end_object();
  w.done();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceta;
  using namespace ceta::explore;

  std::size_t len_a = 17, len_b = 16;
  int ecus = 4;
  std::uint64_t waters_seed = 1;
  bool audsley = true;
  bool quiet = false;
  std::string json_path;
  ExploreOptions opt;
  opt.moves_per_restart = 256;
  opt.restarts = 4;

  const auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  // Numbers are whole tokens; unsigned ones take no sign, so "-1" is a
  // usage error instead of wrapping to a huge count.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    bool ok = true;
    if (arg == "--len-a" && (v = next_arg(i))) {
      ok = parse_whole(v, len_a);
    } else if (arg == "--len-b" && (v = next_arg(i))) {
      ok = parse_whole(v, len_b);
    } else if (arg == "--ecus" && (v = next_arg(i))) {
      ok = parse_whole(v, ecus);
    } else if (arg == "--waters-seed" && (v = next_arg(i))) {
      ok = parse_whole(v, waters_seed);
    } else if (arg == "--seed" && (v = next_arg(i))) {
      ok = parse_whole(v, opt.seed);
    } else if (arg == "--moves" && (v = next_arg(i))) {
      ok = parse_whole(v, opt.moves_per_restart);
    } else if (arg == "--restarts" && (v = next_arg(i))) {
      ok = parse_whole(v, opt.restarts);
    } else if (arg == "--threads" && (v = next_arg(i))) {
      ok = parse_whole(v, opt.num_threads);
    } else if (arg == "--max-buffer" && (v = next_arg(i))) {
      ok = parse_whole(v, opt.max_buffer);
    } else if (arg == "--offset-grid" && (v = next_arg(i))) {
      ok = parse_whole(v, opt.offset_grid);
    } else if (arg == "--strategy" && (v = next_arg(i))) {
      const std::string s = v;
      if (s == "hill") {
        opt.strategy = Strategy::kHillClimb;
      } else if (s == "anneal") {
        opt.strategy = Strategy::kAnneal;
      } else if (s == "portfolio") {
        opt.strategy = Strategy::kPortfolio;
      } else {
        ok = false;
      }
    } else if (arg == "--objective" && (v = next_arg(i))) {
      const std::string s = v;
      if (s == "analyzer") {
        opt.objective = ObjectiveMode::kAnalyzer;
      } else if (s == "exact") {
        opt.objective = ObjectiveMode::kExactLet;
      } else {
        ok = false;
      }
    } else if (arg == "--no-audsley") {
      audsley = false;
    } else if (arg == "--json" && (v = next_arg(i))) {
      json_path = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }

  try {
    // Scan waters_seed forward to the first schedulable parameterization.
    TaskGraph g;
    for (;; ++waters_seed) {
      g = merge_chains_at_sink(len_a, len_b);
      Rng rng(waters_seed);
      WatersAssignOptions wopt;
      wopt.num_ecus = ecus;
      assign_waters_parameters(g, wopt, rng);
      if (AnalysisEngine probe(g); probe.schedulable()) break;
    }
    const TaskId sink = g.sinks().front();

    AnalysisEngine engine(std::move(g));
    if (audsley) seed_priorities(engine);

    const ExploreResult result = ceta::explore::explore(engine, sink, opt);

    if (!quiet) {
      std::cout << "explore: " << engine.graph().num_tasks() << " tasks, sink "
                << sink << ", waters seed " << waters_seed << "\n"
                << "start: disparity " << result.start.disparity.count()
                << " ns, data age " << result.start.data_age.count()
                << " ns, memory " << result.start.memory << "\n"
                << "front (" << result.archive.size() << " entries):\n";
      for (const ArchiveEntry& e : result.archive) {
        std::cout << "  disparity " << e.objectives.disparity.count()
                  << " ns, data age " << e.objectives.data_age.count()
                  << " ns, memory " << e.objectives.memory << ", delta "
                  << e.delta.size() << " edits (key " << e.key << ")\n";
      }
      std::cout << "moves: " << result.stats.proposed << " proposed, "
                << result.stats.accepted << " accepted, "
                << result.stats.rolled_back << " rolled back, "
                << result.stats.invalid << " invalid, "
                << result.stats.unschedulable << " unschedulable\n"
                << "archive: " << result.stats.archive_inserts << " inserts, "
                << result.stats.archive_evictions << " evictions, "
                << result.stats.archive_rejects << " rejects\n";
    }
    if (!json_path.empty()) {
      write_json(json_path, engine.graph(), sink, waters_seed, opt, result);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "explore: " << e.what() << "\n";
    return 1;
  }
}
