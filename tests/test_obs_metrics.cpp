// obs::MetricsRegistry: instrument semantics (counter/gauge/histogram),
// create-or-get identity, snapshot ordering and JSON shape, and the
// determinism property the engine relies on — identical operations on two
// engines produce identical counter snapshots.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "engine/analysis_engine.hpp"
#include "helpers.hpp"
#include "json_checker.hpp"
#include "obs/json_writer.hpp"

namespace ceta {
namespace {

using ceta::testing::JsonParser;
using ceta::testing::JsonValue;
using ceta::testing::random_dag_graph;
using obs::DurationHistogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(Metrics, CounterAddAndValue) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Create-or-get returns the same instrument.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  EXPECT_EQ(reg.snapshot().counter("test.counter"), 42u);
  EXPECT_EQ(reg.snapshot().counter("no.such.counter"), 0u);
}

TEST(Metrics, GaugeLastWriteWins) {
  MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("test.gauge");
  EXPECT_EQ(g.value(), 0);
  g.set(7);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  EXPECT_EQ(&reg.gauge("test.gauge"), &g);
}

TEST(Metrics, CounterIsThreadSafe) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) c.add();
      });
    }
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, HistogramStatsAndPercentiles) {
  MetricsRegistry reg;
  DurationHistogram& h = reg.histogram("test.hist");
  EXPECT_EQ(h.snapshot().count, 0u);

  // 100 samples of 1000ns: every percentile lands in the [512, 1024)ns
  // octave, count/sum/min/max are exact.
  for (int i = 0; i < 100; ++i) h.observe(Duration::ns(1000));
  const DurationHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, Duration::ns(100000));
  EXPECT_EQ(s.min, Duration::ns(1000));
  EXPECT_EQ(s.max, Duration::ns(1000));
  for (const Duration p : {s.p50, s.p95, s.p99}) {
    EXPECT_GE(p, Duration::ns(512));
    EXPECT_LE(p, Duration::ns(1024));
  }
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(Metrics, HistogramSpreadKeepsPercentilesOrdered) {
  MetricsRegistry reg;
  DurationHistogram& h = reg.histogram("test.spread");
  // 90 fast samples (~1µs), 10 slow (~1ms): p50 must sit in the fast
  // octave, p99 in the slow one.
  for (int i = 0; i < 90; ++i) h.observe(Duration::us(1));
  for (int i = 0; i < 10; ++i) h.observe(Duration::ms(1));
  const DurationHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, Duration::us(1));
  EXPECT_EQ(s.max, Duration::ms(1));
  EXPECT_LT(s.p50, Duration::us(3));
  EXPECT_GT(s.p99, Duration::us(500));
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(Metrics, EmptyHistogramSnapshotIsAllZero) {
  // The defined empty value: every field zero.  In particular the min
  // must be 0, not the INT64_MAX sentinel the live instrument carries —
  // that sentinel leaking into a BENCH_*.json of an idle histogram is the
  // bug this pins.
  MetricsRegistry reg;
  const DurationHistogram::Snapshot s = reg.histogram("idle").snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, Duration::zero());
  EXPECT_EQ(s.min, Duration::zero());
  EXPECT_EQ(s.max, Duration::zero());
  EXPECT_EQ(s.p50, Duration::zero());
  EXPECT_EQ(s.p95, Duration::zero());
  EXPECT_EQ(s.p99, Duration::zero());

  // And the serialized form agrees, via the independent parser.
  const JsonValue doc = JsonParser::parse(reg.snapshot().to_json());
  const JsonValue& h = doc.at("histograms").at("idle");
  for (const char* key :
       {"count", "sum_ns", "min_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns"}) {
    EXPECT_EQ(h.at(key).number, 0.0) << key;
  }
}

TEST(Metrics, SingleSampleHistogramReportsDegenerateQuantiles) {
  // One sample defines every statistic: p50 = p95 = p99 = min = max =
  // the sample, not an interpolated point somewhere in its octave.
  MetricsRegistry reg;
  DurationHistogram& h = reg.histogram("one");
  h.observe(Duration::ns(777));
  const DurationHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, Duration::ns(777));
  EXPECT_EQ(s.min, Duration::ns(777));
  EXPECT_EQ(s.max, Duration::ns(777));
  EXPECT_EQ(s.p50, Duration::ns(777));
  EXPECT_EQ(s.p95, Duration::ns(777));
  EXPECT_EQ(s.p99, Duration::ns(777));

  const JsonValue doc = JsonParser::parse(reg.snapshot().to_json());
  const JsonValue& j = doc.at("histograms").at("one");
  EXPECT_EQ(j.at("count").number, 1.0);
  EXPECT_EQ(j.at("p50_ns").number, 777.0);
  EXPECT_EQ(j.at("p99_ns").number, 777.0);
}

TEST(Metrics, ZeroAndNegativeDurationsLandInTheZeroBucket) {
  MetricsRegistry reg;
  DurationHistogram& h = reg.histogram("clamped");
  h.observe(Duration::zero());
  h.observe(Duration::ns(-5));  // clamped, never a corrupt bucket index
  const DurationHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.sum, Duration::zero());
  EXPECT_EQ(s.min, Duration::zero());
  EXPECT_EQ(s.max, Duration::zero());
  EXPECT_EQ(s.p99, Duration::zero());
}

TEST(Metrics, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  // Registered out of order; the snapshot must come back sorted so that
  // exports are deterministic regardless of registration order.
  reg.counter("zebra").add(1);
  reg.counter("alpha").add(2);
  reg.counter("mid.point").add(3);
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].first, "alpha");
  EXPECT_EQ(s.counters[1].first, "mid.point");
  EXPECT_EQ(s.counters[2].first, "zebra");
}

TEST(Metrics, SnapshotJsonShape) {
  MetricsRegistry reg;
  reg.counter("c.one").add(11);
  reg.gauge("g.one").set(-5);
  reg.histogram("h.one").observe(Duration::us(2));
  const JsonValue doc = JsonParser::parse(reg.snapshot().to_json());
  EXPECT_EQ(doc.at("counters").at("c.one").number, 11.0);
  EXPECT_EQ(doc.at("gauges").at("g.one").number, -5.0);
  const JsonValue& h = doc.at("histograms").at("h.one");
  EXPECT_EQ(h.at("count").number, 1.0);
  EXPECT_EQ(h.at("sum_ns").number, 2000.0);
  EXPECT_EQ(h.at("min_ns").number, 2000.0);
  EXPECT_EQ(h.at("max_ns").number, 2000.0);
  EXPECT_TRUE(h.has("p50_ns"));
  EXPECT_TRUE(h.has("p95_ns"));
  EXPECT_TRUE(h.has("p99_ns"));
  // An empty registry still emits all three sections.
  const JsonValue empty = JsonParser::parse(MetricsRegistry().snapshot()
                                            // (temporary registry)
                                                .to_json());
  EXPECT_TRUE(empty.at("counters").is_object());
  EXPECT_TRUE(empty.at("gauges").is_object());
  EXPECT_TRUE(empty.at("histograms").is_object());
  EXPECT_EQ(empty.at("counters").size(), 0u);
}

TEST(Metrics, WriteJsonComposesIntoLargerDocument) {
  MetricsRegistry reg;
  reg.counter("nested.counter").add(9);
  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.member("kind", "wrapper");
  w.key("metrics");
  reg.snapshot().write_json(w);
  w.end_object();
  w.done();
  const JsonValue doc = JsonParser::parse(os.str());
  EXPECT_EQ(doc.at("kind").string, "wrapper");
  EXPECT_EQ(doc.at("metrics").at("counters").at("nested.counter").number, 9.0);
}

// The determinism property metrics exports rely on: two engines run
// through the same operations on the same graph report identical counters
// and identical histogram *counts*.  (Histogram durations are wall time
// and must never be compared.)
TEST(Metrics, EngineSnapshotsAreDeterministic) {
  const TaskGraph g = random_dag_graph(14, 3, /*seed=*/21);

  const auto session = [&g]() {
    AnalysisEngine engine(g);
    const std::vector<TaskId> fusing = engine.fusing_tasks();
    for (const TaskId t : fusing) (void)engine.disparity(t);
    for (const TaskId t : fusing) (void)engine.disparity(t);  // all hits
    for (const TaskId t : fusing) (void)engine.optimize_buffers(t);
    return engine.metrics();
  };

  const MetricsSnapshot a = session();
  const MetricsSnapshot b = session();

  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].first, b.counters[i].first);
    EXPECT_EQ(a.counters[i].second, b.counters[i].second)
        << "counter " << a.counters[i].first;
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].first, b.histograms[i].first);
    EXPECT_EQ(a.histograms[i].second.count, b.histograms[i].second.count)
        << "histogram " << a.histograms[i].first;
  }
  // The engine's private registry is per-session: a fresh engine that does
  // nothing reports zero everywhere.
  const AnalysisEngine idle(g);
  for (const auto& [name, value] : idle.metrics().counters) {
    EXPECT_EQ(value, 0u) << name;
  }
}

}  // namespace
}  // namespace ceta
