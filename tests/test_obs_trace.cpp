// Chrome-trace exporter schema golden test: the tracer's output for a
// representative instrumented workload must be valid JSON in the Chrome
// trace-event format — a "traceEvents" array of "M" thread-name metadata
// followed by complete ("X") events with monotone timestamps — and must
// contain spans from every instrumented layer (RTA, chain enumeration,
// hop bounds, disparity, engine cache, pool workers, simulator).
//
// Each TEST runs in its own process (gtest_discover_tests), so starting
// and stopping the process-wide tracer here cannot leak into other tests.

#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "engine/analysis_engine.hpp"
#include "engine/thread_pool.hpp"
#include "helpers.hpp"
#include "json_checker.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

using ceta::testing::JsonArray;
using ceta::testing::JsonParser;
using ceta::testing::JsonValue;
using ceta::testing::random_dag_graph;
using obs::Tracer;

/// The instrumented workload every schema assertion below runs against:
/// an engine session (RTA, enumeration, disparity of
/// every fusing task), a direct pool round-trip, and a short simulation.
void run_instrumented_workload() {
  obs::set_thread_name("main");
  const TaskGraph g = random_dag_graph(14, 3, /*seed=*/3);
  const AnalysisEngine engine(g);
  for (int pass = 0; pass < 2; ++pass) {  // second pass: cache-hit spans
    for (const TaskId t : engine.fusing_tasks()) (void)engine.disparity(t);
  }

  // The pool.job spans and pool-worker-* thread labels.
  {
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) pool.submit([] {}).get();
  }

  SimOptions sopt;
  sopt.duration = Duration::ms(200);
  (void)Simulator(g, sopt).run();
}

JsonValue record_trace() {
  Tracer::global().start();  // no path: in-memory export
  run_instrumented_workload();
  const std::string json = Tracer::global().stop_to_string();
  EXPECT_FALSE(Tracer::enabled());
  return JsonParser::parse(json);
}

TEST(TraceSchema, GoldenShape) {
  const JsonValue doc = record_trace();

  // Top level: traceEvents + displayTimeUnit + ceta extension object.
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  EXPECT_EQ(doc.at("ceta").at("dropped_events").number, 0.0);

  const JsonArray& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());

  double last_x_ts = -1.0;
  bool seen_x = false;
  std::set<std::string> names;
  std::set<std::string> cats;
  std::set<std::string> thread_names;
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const std::string ph = ev.at("ph").string;
    ASSERT_TRUE(ph == "X" || ph == "M") << "unexpected ph '" << ph << "'";
    EXPECT_EQ(ev.at("pid").number, 1.0);
    EXPECT_GE(ev.at("tid").number, 0.0);
    if (ph == "M") {
      // Metadata must precede all X events and carry args.name.
      EXPECT_FALSE(seen_x) << "metadata event after an X event";
      EXPECT_EQ(ev.at("name").string, "thread_name");
      thread_names.insert(ev.at("args").at("name").string);
      continue;
    }
    seen_x = true;
    // Complete events: name, cat, ts >= 0, dur >= 0, sorted by ts.
    ASSERT_TRUE(ev.at("name").is_string());
    ASSERT_TRUE(ev.at("cat").is_string());
    EXPECT_FALSE(ev.at("name").string.empty());
    const double ts = ev.at("ts").number;
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(ev.at("dur").number, 0.0);
    EXPECT_GE(ts, last_x_ts) << "timestamps not monotone";
    last_x_ts = ts;
    names.insert(ev.at("name").string);
    cats.insert(ev.at("cat").string);
  }
  ASSERT_TRUE(seen_x);

  // Every instrumented layer contributed at least one span.
  for (const char* name :
       {"analyze_response_times", "enumerate_source_chains", "hop_bound",
        "rta", "chains", "disparity", "pool.job",
        "simulator.run"}) {
    EXPECT_TRUE(names.count(name)) << "missing span '" << name << "'";
  }
  for (const char* cat : {"sched", "graph", "chain", "disparity", "engine",
                          "sim"}) {
    EXPECT_TRUE(cats.count(cat)) << "missing category '" << cat << "'";
  }

  // Thread labels: the test thread named itself and the pool names
  // its workers.
  EXPECT_TRUE(thread_names.count("main"));
  EXPECT_TRUE(std::any_of(thread_names.begin(), thread_names.end(),
                          [](const std::string& n) {
                            return n.rfind("pool-worker-", 0) == 0;
                          }))
      << "no pool-worker-* thread label";
}

TEST(TraceSchema, SpanArgsAndCacheAnnotations) {
  const JsonValue doc = record_trace();

  bool saw_hit = false;
  bool saw_miss = false;
  bool saw_int_arg = false;
  for (const JsonValue& ev : doc.at("traceEvents").items()) {
    if (ev.at("ph").string != "X" || !ev.has("args")) continue;
    const JsonValue& args = ev.at("args");
    if (args.has("cache")) {
      const std::string& v = args.at("cache").string;
      ASSERT_TRUE(v == "hit" || v == "miss") << v;
      saw_hit = saw_hit || v == "hit";
      saw_miss = saw_miss || v == "miss";
    }
    if (args.has("tasks")) {
      EXPECT_TRUE(args.at("tasks").is_number());
      saw_int_arg = true;
    }
  }
  // The cold pass produces misses, the warm pass hits; the RTA span's
  // "tasks" annotation covers integer args.
  EXPECT_TRUE(saw_miss);
  EXPECT_TRUE(saw_hit);
  EXPECT_TRUE(saw_int_arg);
}

TEST(TraceSchema, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::enabled());
  {
    obs::Span span("test", "should_not_record");
    span.arg("k", std::int64_t{1});
  }
  EXPECT_EQ(Tracer::global().pending_events(), 0u);

  // A start/stop cycle with no spans exports an empty-but-valid document.
  Tracer::global().start();
  const JsonValue doc = JsonParser::parse(Tracer::global().stop_to_string());
  for (const JsonValue& ev : doc.at("traceEvents").items()) {
    EXPECT_EQ(ev.at("ph").string, "M");  // only prior thread registrations
  }
  EXPECT_EQ(doc.at("ceta").at("dropped_events").number, 0.0);
}

TEST(TraceSchema, RestartDropsPreviousEvents) {
  Tracer::global().start();
  { obs::Span span("test", "first_recording"); }
  ASSERT_GE(Tracer::global().pending_events(), 1u);

  // start() again: prior events are discarded, not duplicated.
  Tracer::global().start();
  { obs::Span span("test", "second_recording"); }
  const JsonValue doc = JsonParser::parse(Tracer::global().stop_to_string());
  std::size_t x_events = 0;
  for (const JsonValue& ev : doc.at("traceEvents").items()) {
    if (ev.at("ph").string != "X") continue;
    ++x_events;
    EXPECT_EQ(ev.at("name").string, "second_recording");
  }
  EXPECT_EQ(x_events, 1u);
  // stop_to_string() drains: nothing is left pending.
  EXPECT_EQ(Tracer::global().pending_events(), 0u);
}

}  // namespace
}  // namespace ceta
