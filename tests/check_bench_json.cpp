// Standalone validator for the BENCH_*.json files the perf_smoke ctest
// produces: parses the file with the independent JSON parser the obs
// tests use, checks the schema the bench promises, and fails (exit 1) if
// the recorded cross-check ever reported a divergence.
//
//   check_bench_json <file> [pairwise|incremental|dagdp|service|explore|
//                            tightness|policy]
//
// The optional second argument selects the schema; "pairwise" (the
// kernel-vs-reference comparison) is the default, "incremental" validates
// the mutation-API-vs-fresh-rebuild sweep, "dagdp" the DAG-DP backend's
// agreement-plus-throughput record.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "json_checker.hpp"

namespace {

int fail(const std::string& why) {
  std::cerr << "FAIL: " << why << "\n";
  return 1;
}

int check_pairwise(const ceta::testing::JsonValue& doc,
                   const std::string& path) {
  for (const char* key :
       {"bench", "chains", "pairs", "reference_ns", "kernel_ns", "speedup",
        "match"}) {
    if (!doc.has(key)) return fail(path + " lacks member '" + key + "'");
  }
  if (doc.at("bench").string != "pairwise_kernel_vs_reference") {
    return fail("unexpected bench id '" + doc.at("bench").string + "'");
  }
  if (doc.at("chains").number < 2 || doc.at("pairs").number < 1 ||
      doc.at("kernel_ns").number <= 0) {
    return fail("degenerate bench record in " + path);
  }
  if (!doc.at("match").boolean) {
    return fail(
        "pairwise kernel diverged from the reference analyzer (match: "
        "false in " +
        path + ")");
  }
  std::cout << "OK: " << path << " (" << doc.at("chains").number
            << " chains, speedup " << doc.at("speedup").number
            << "x, match: true)\n";
  return 0;
}

int check_incremental(const ceta::testing::JsonValue& doc,
                      const std::string& path) {
  for (const char* key :
       {"bench", "graph_tasks", "sweep_points", "fresh_ns", "incremental_ns",
        "speedup", "commits", "retention_ppm", "match"}) {
    if (!doc.has(key)) return fail(path + " lacks member '" + key + "'");
  }
  if (doc.at("bench").string != "incremental_vs_fresh") {
    return fail("unexpected bench id '" + doc.at("bench").string + "'");
  }
  if (doc.at("sweep_points").number < 2 ||
      doc.at("incremental_ns").number <= 0 ||
      doc.at("commits").number < doc.at("sweep_points").number) {
    return fail("degenerate bench record in " + path);
  }
  if (!doc.at("match").boolean) {
    return fail(
        "incremental engine diverged from fresh rebuilds (match: false "
        "in " +
        path + ")");
  }
  std::cout << "OK: " << path << " (" << doc.at("sweep_points").number
            << " sweep points, speedup " << doc.at("speedup").number
            << "x, match: true)\n";
  return 0;
}

int check_dagdp(const ceta::testing::JsonValue& doc, const std::string& path) {
  for (const char* key :
       {"bench", "agreement_chains", "match", "graph_tasks",
        "chain_count_saturated", "exact", "serial_ns", "tasks_per_sec"}) {
    if (!doc.has(key)) return fail(path + " lacks member '" + key + "'");
  }
  if (doc.at("bench").string != "dagdp_vs_enumeration") {
    return fail("unexpected bench id '" + doc.at("bench").string + "'");
  }
  if (doc.at("agreement_chains").number < 2 ||
      doc.at("graph_tasks").number < 10'000 ||
      doc.at("serial_ns").number <= 0 || doc.at("tasks_per_sec").number <= 0) {
    return fail("degenerate bench record in " + path);
  }
  if (!doc.at("chain_count_saturated").boolean) {
    return fail("huge-graph fixture lost its beyond-size_t chain count in " +
                path);
  }
  if (!doc.at("match").boolean) {
    return fail(
        "DAG-DP backend diverged from the enumerating kernel (match: "
        "false in " +
        path + ")");
  }
  std::cout << "OK: " << path << " (" << doc.at("graph_tasks").number
            << " tasks, " << doc.at("tasks_per_sec").number
            << " tasks/sec, match: true)\n";
  return 0;
}

int check_service(const ceta::testing::JsonValue& doc,
                  const std::string& path) {
  for (const char* key :
       {"bench", "sessions", "threads", "ops", "ops_per_sec", "pushes",
        "push_checks", "match", "query_count", "query_p50_ns", "query_p95_ns",
        "query_p99_ns", "mutate_count", "mutate_p50_ns", "mutate_p95_ns",
        "mutate_p99_ns"}) {
    if (!doc.has(key)) return fail(path + " lacks member '" + key + "'");
  }
  if (doc.at("bench").string != "service_fleet") {
    return fail("unexpected bench id '" + doc.at("bench").string + "'");
  }
  if (doc.at("sessions").number < 1000) {
    return fail("fleet below the 1000-session floor in " + path);
  }
  if (doc.at("ops").number <= 0 || doc.at("ops_per_sec").number <= 0 ||
      doc.at("query_count").number <= 0 || doc.at("mutate_count").number <= 0) {
    return fail("degenerate bench record in " + path);
  }
  if (doc.at("pushes").number < 1) {
    return fail("no subscription pushes delivered in " + path);
  }
  // Percentiles must be defined and monotone — the histogram hardening
  // contract (empty/single-sample snapshots are exercised elsewhere; a
  // live fleet must produce ordered, positive quantiles).
  const double q50 = doc.at("query_p50_ns").number;
  const double q95 = doc.at("query_p95_ns").number;
  const double q99 = doc.at("query_p99_ns").number;
  if (!(q50 > 0) || q95 < q50 || q99 < q95) {
    return fail("query latency percentiles not positive/monotone in " + path);
  }
  const double m50 = doc.at("mutate_p50_ns").number;
  const double m95 = doc.at("mutate_p95_ns").number;
  const double m99 = doc.at("mutate_p99_ns").number;
  if (!(m50 > 0) || m95 < m50 || m99 < m95) {
    return fail("mutate latency percentiles not positive/monotone in " + path);
  }
  if (!doc.at("match").boolean) {
    return fail(
        "service replies/pushes diverged from fresh-engine recomputes "
        "(match: false in " +
        path + ")");
  }
  std::cout << "OK: " << path << " (" << doc.at("sessions").number
            << " sessions, " << doc.at("ops_per_sec").number
            << " ops/s, query p99 " << q99 << "ns, match: true)\n";
  return 0;
}

int check_explore(const ceta::testing::JsonValue& doc,
                  const std::string& path) {
  for (const char* key :
       {"bench", "tasks", "restarts", "budgets", "moves", "evaluations",
        "wall_seconds", "moves_per_sec_incremental", "evals_per_sec_incremental",
        "fresh_evals", "evals_per_sec_fresh", "speedup", "archive_size",
        "hypervolume_proxy", "revalidate_ok", "determinism_ok"}) {
    if (!doc.has(key)) return fail(path + " lacks member '" + key + "'");
  }
  if (doc.at("bench").string != "explore") {
    return fail("unexpected bench id '" + doc.at("bench").string + "'");
  }
  if (doc.at("tasks").number < 64 || doc.at("moves").number < 1 ||
      doc.at("archive_size").number < 1 ||
      doc.at("moves_per_sec_incremental").number <= 0 ||
      doc.at("evals_per_sec_fresh").number <= 0) {
    return fail("degenerate bench record in " + path);
  }
  if (!doc.at("revalidate_ok").boolean) {
    return fail(
        "an archived configuration failed to replay to its recorded "
        "objectives (revalidate_ok: false in " +
        path + ")");
  }
  if (!doc.at("determinism_ok").boolean) {
    return fail(
        "explorer Pareto front depends on the thread count "
        "(determinism_ok: false in " +
        path + ")");
  }
  if (doc.at("speedup").number < 5.0) {
    return fail(
        "incremental move evaluation below the 5x gate over "
        "fresh-engine-per-move (speedup < 5 in " +
        path + ")");
  }
  std::cout << "OK: " << path << " ("
            << doc.at("moves_per_sec_incremental").number << " moves/s, speedup "
            << doc.at("speedup").number << "x, archive "
            << doc.at("archive_size").number << ", deterministic)\n";
  return 0;
}

int check_tightness(const ceta::testing::JsonValue& doc,
                    const std::string& path) {
  for (const char* key : {"bench", "replications", "all_within_bounds",
                          "instances"}) {
    if (!doc.has(key)) return fail(path + " lacks member '" + key + "'");
  }
  if (doc.at("bench").string != "tightness") {
    return fail("unexpected bench id '" + doc.at("bench").string + "'");
  }
  if (doc.at("replications").number < 1000) {
    return fail("replication count below the 1000 floor in " + path);
  }
  const auto& instances = doc.at("instances").items();
  if (instances.size() < 3) {
    return fail("fewer than 3 instances recorded in " + path);
  }
  for (const auto& inst : instances) {
    for (const char* key :
         {"name", "tasks", "bound_ns", "worst_sample_ns", "tightness",
          "bound_violations", "samples", "sims_per_sec", "histogram"}) {
      if (!inst.has(key)) {
        return fail(path + " instance lacks member '" + std::string(key) + "'");
      }
    }
    if (inst.at("bound_violations").number != 0) {
      return fail("instance '" + inst.at("name").string +
                  "' measured a disparity above the analyzer bound in " +
                  path);
    }
    if (inst.at("samples").number < 1 || inst.at("sims_per_sec").number <= 0 ||
        inst.at("tightness").number < 0 || inst.at("tightness").number > 1) {
      return fail("degenerate instance record in " + path);
    }
    if (inst.at("histogram").items().empty()) {
      return fail("instance '" + inst.at("name").string +
                  "' recorded an empty measured-disparity histogram in " +
                  path);
    }
  }
  if (!doc.at("all_within_bounds").boolean) {
    return fail("a Monte-Carlo sample exceeded its analyzer bound "
                "(all_within_bounds: false in " +
                path + ")");
  }
  std::cout << "OK: " << path << " (" << doc.at("replications").number
            << " replications x " << instances.size()
            << " instances, all within bounds)\n";
  return 0;
}

int check_policy(const ceta::testing::JsonValue& doc,
                 const std::string& path) {
  for (const char* key :
       {"bench", "tasks", "rta_iterations", "rta_np_per_sec",
        "rta_preemptive_per_sec", "rta_edf_per_sec", "disparity_np_ns",
        "disparity_preemptive_ns", "disparity_edf_ns", "sweep_instances",
        "sweep_violations", "match"}) {
    if (!doc.has(key)) return fail(path + " lacks member '" + key + "'");
  }
  if (doc.at("bench").string != "policy") {
    return fail("unexpected bench id '" + doc.at("bench").string + "'");
  }
  if (doc.at("tasks").number < 64 || doc.at("rta_np_per_sec").number <= 0 ||
      doc.at("rta_preemptive_per_sec").number <= 0 ||
      doc.at("rta_edf_per_sec").number <= 0 ||
      doc.at("disparity_np_ns").number <= 0 ||
      doc.at("sweep_instances").number < 1) {
    return fail("degenerate bench record in " + path);
  }
  if (doc.at("sweep_violations").number != 0 || !doc.at("match").boolean) {
    return fail(
        "a mixed-policy simulation observed a response time above its "
        "policy-routed WCRT (match: false in " +
        path + ")");
  }
  std::cout << "OK: " << path << " (" << doc.at("sweep_instances").number
            << " mixed-policy instances, RTA np/p/edf "
            << doc.at("rta_np_per_sec").number << "/"
            << doc.at("rta_preemptive_per_sec").number << "/"
            << doc.at("rta_edf_per_sec").number << " runs/s, match: true)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::cerr << "usage: check_bench_json <BENCH_*.json> "
                 "[pairwise|incremental|dagdp|service|explore|tightness|"
                 "policy]\n";
    return 2;
  }
  const std::string path = argv[1];
  const std::string schema = argc == 3 ? argv[2] : "pairwise";
  if (schema != "pairwise" && schema != "incremental" && schema != "dagdp" &&
      schema != "service" && schema != "explore" && schema != "tightness" &&
      schema != "policy") {
    std::cerr << "unknown schema '" << schema << "'\n";
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "FAIL: cannot open '" << path
              << "' (did the perf_smoke run produce it?)\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  try {
    const ceta::testing::JsonValue doc =
        ceta::testing::JsonParser::parse(buf.str());
    if (schema == "pairwise") return check_pairwise(doc, path);
    if (schema == "incremental") return check_incremental(doc, path);
    if (schema == "dagdp") return check_dagdp(doc, path);
    if (schema == "explore") return check_explore(doc, path);
    if (schema == "tightness") return check_tightness(doc, path);
    if (schema == "policy") return check_policy(doc, path);
    return check_service(doc, path);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << path << " is not valid JSON: " << e.what()
              << "\n";
    return 1;
  }
}
