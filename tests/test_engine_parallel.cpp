// Concurrent readers of one shared AnalysisEngine — the pattern of cetad
// workers serving one session: every const query must be safe from
// several threads at once and return results bit-identical to a serial
// run.  A TSan target (configure with -DCETA_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/analysis_engine.hpp"
#include "helpers.hpp"
#include "obs/tracer.hpp"

namespace ceta {
namespace {

using ceta::testing::random_dag_graph;

bool same_report(const DisparityReport& a, const DisparityReport& b) {
  if (a.worst_case != b.worst_case || a.chains != b.chains ||
      a.backend != b.backend || a.exact != b.exact ||
      a.chain_count != b.chain_count || a.pairs.size() != b.pairs.size()) {
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

bool same_latency(const LatencyReport& a, const LatencyReport& b) {
  return a.backward.wcbt == b.backward.wcbt &&
         a.backward.bcbt == b.backward.bcbt &&
         a.max_data_age == b.max_data_age &&
         a.min_data_age == b.min_data_age &&
         a.max_reaction_time == b.max_reaction_time;
}

TEST(EngineParallel, ConcurrentCallersOnOneEngine) {
  // Serial reference: S-diff and P-diff of every fusing task plus the
  // latency of each of its chains, from a separate engine.
  const TaskGraph g = random_dag_graph(14, 3, /*seed=*/23);
  const AnalysisEngine reference(g);
  const std::vector<TaskId> tasks = reference.fusing_tasks();
  ASSERT_FALSE(tasks.empty());
  DisparityOptions pdiff;
  pdiff.method = DisparityMethod::kIndependent;
  std::vector<DisparityReport> want_s, want_p;
  std::vector<std::vector<LatencyReport>> want_lat(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    want_s.push_back(reference.disparity(tasks[i]));
    want_p.push_back(reference.disparity(tasks[i], pdiff));
    for (const Path& c : want_s[i].chains) {
      want_lat[i].push_back(reference.latency(c));
    }
  }

  // Four callers, tracing on, start at different tasks so they race on
  // cold cache entries (RTA, chain sets, chain bounds, reports) first and
  // warm ones later.
  obs::Tracer::global().start();  // in-memory
  const AnalysisEngine shared(g);
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (std::size_t c = 0; c < 4; ++c) {
      callers.emplace_back([&, c] {
        for (int round = 0; round < 3; ++round) {
          for (std::size_t k = 0; k < tasks.size(); ++k) {
            const std::size_t i = (k + c) % tasks.size();
            bool ok = same_report(shared.disparity(tasks[i]), want_s[i]) &&
                      same_report(shared.disparity(tasks[i], pdiff), want_p[i]);
            for (std::size_t j = 0; j < want_s[i].chains.size(); ++j) {
              ok = ok && same_latency(shared.latency(want_s[i].chains[j]),
                                      want_lat[i][j]);
            }
            if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  const std::string json = obs::Tracer::global().stop_to_string();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(shared.metrics().counter("engine.rta.runs"), 1u);
  EXPECT_NE(json.find("\"disparity\""), std::string::npos);
  EXPECT_NE(json.find("\"pair_kernel\""), std::string::npos);
}

}  // namespace
}  // namespace ceta
