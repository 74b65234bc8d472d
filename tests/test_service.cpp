// ServiceCore — the transport-independent cetad protocol engine.
//
// Everything here drives the service through the real wire payloads
// (JSON text in, JSON text out) with no sockets: session lifecycle and
// admission control, the error-code contract (every client-provocable
// failure is a structured reply), subscription exactness (pushes fire for
// exactly the dirtied sinks of a commit, with values matching a fresh
// engine), rollback message preservation, idle eviction, and a
// multi-threaded stress run for the TSan lane.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/analysis_engine.hpp"
#include "graph/serialize.hpp"
#include "obs/json_writer.hpp"

namespace ceta::service {
namespace {

// Two independent fusion sinks sharing a source: mutating A (or B) can
// only dirty F1; mutating D only F2; mutating anything reachable from S1
// via C dirties F2.  Task ids follow declaration order:
//   S0=0 S1=1 S2=2 A=3 B=4 C=5 D=6 F1=7 F2=8
constexpr char kTwoSinkGraph[] =
    "task S0 0 0 10000000 0 0 -1\n"
    "task S1 0 0 12000000 0 0 -1\n"
    "task S2 0 0 15000000 0 0 -1\n"
    "task A 1000000 500000 10000000 0 0 0\n"
    "task B 1000000 500000 12000000 0 1 0\n"
    "task C 1000000 500000 12000000 0 0 1\n"
    "task D 1000000 500000 15000000 0 1 1\n"
    "task F1 2000000 1000000 30000000 0 0 2\n"
    "task F2 2000000 1000000 30000000 0 1 2\n"
    "edge S0 A\nedge S1 B\nedge S1 C\nedge S2 D\n"
    "edge A F1\nedge B F1\nedge C F2\nedge D F2\n";

constexpr TaskId kSinkF1 = 7;
constexpr TaskId kSinkF2 = 8;

// Three chains fuse at F: 3 chain pairs, so a max_reply_pairs=1 core must
// truncate the serialized pair list.
constexpr char kThreeSourceGraph[] =
    "task S0 0 0 10000000 0 0 -1\n"
    "task S1 0 0 12000000 0 0 -1\n"
    "task S2 0 0 15000000 0 0 -1\n"
    "task A 1000000 500000 10000000 0 0 0\n"
    "task B 1000000 500000 12000000 0 1 0\n"
    "task C 1000000 500000 15000000 0 2 0\n"
    "task F 2000000 1000000 30000000 0 0 1\n"
    "edge S0 A\nedge S1 B\nedge S2 C\n"
    "edge A F\nedge B F\nedge C F\n";

std::string quoted_graph(const char* text) {
  return "\"" + obs::JsonWriter::escape(text) + "\"";
}

std::string request(std::int64_t id, const std::string& op,
                    const std::string& body = "") {
  std::string r = "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op + "\"";
  if (!body.empty()) r += "," + body;
  return r + "}";
}

JsonValue reply_of(const Outcome& out) { return parse_json(out.reply); }

/// Assert an ok reply and return its result.
JsonValue expect_ok(const Outcome& out) {
  const JsonValue doc = reply_of(out);
  EXPECT_TRUE(doc.at("ok").boolean) << out.reply;
  return doc.at("result");
}

/// Assert an error reply with `code` and return its message.
std::string expect_error(const Outcome& out, const std::string& code) {
  const JsonValue doc = reply_of(out);
  EXPECT_FALSE(doc.at("ok").boolean) << out.reply;
  EXPECT_EQ(doc.at("error").at("code").string, code) << out.reply;
  return doc.at("error").at("message").string;
}

void create(ServiceCore& core, const std::string& name, const char* graph,
            ClientId client = 1) {
  expect_ok(core.handle(
      client, request(1, "create_session",
                      "\"name\":\"" + name +
                          "\",\"graph\":" + quoted_graph(graph))));
}

// --- lifecycle & admission --------------------------------------------------

TEST(ServiceLifecycle, PingAndUnknownOp) {
  ServiceCore core;
  const JsonValue r = expect_ok(core.handle(1, request(1, "ping")));
  EXPECT_TRUE(r.at("pong").boolean);
  expect_error(core.handle(1, request(2, "frobnicate")), "bad_request");
}

TEST(ServiceLifecycle, CreateQueryDropSession) {
  ServiceCore core;
  const JsonValue created = expect_ok(core.handle(
      1, request(1, "create_session",
                 "\"name\":\"g\",\"graph\":" + quoted_graph(kTwoSinkGraph))));
  EXPECT_EQ(created.at("name").string, "g");
  EXPECT_EQ(created.at("tasks").number, 9.0);
  EXPECT_EQ(created.at("edges").number, 8.0);
  EXPECT_EQ(core.session_count(), 1u);

  // Duplicate names are a structured failure, not an exception.
  expect_error(core.handle(1, request(2, "create_session",
                                      "\"name\":\"g\",\"graph\":" +
                                          quoted_graph(kTwoSinkGraph))),
               "session_exists");

  const JsonValue listed = expect_ok(core.handle(1, request(3, "list_sessions")));
  EXPECT_EQ(listed.at("count").number, 1.0);
  EXPECT_EQ(listed.at("sessions").items()[0].at("name").string, "g");

  // The graph dump round-trips through the text serializer.
  const JsonValue dump = expect_ok(
      core.handle(1, request(4, "graph", "\"session\":\"g\"")));
  EXPECT_EQ(graph_from_text(dump.at("text").string).num_tasks(), 9u);

  expect_ok(core.handle(1, request(5, "drop_session", "\"name\":\"g\"")));
  EXPECT_EQ(core.session_count(), 0u);
  expect_error(core.handle(1, request(6, "drop_session", "\"name\":\"g\"")),
               "no_such_session");
  expect_error(core.handle(1, request(7, "disparity",
                                      "\"session\":\"g\",\"sink\":\"F1\"")),
               "no_such_session");
}

TEST(ServiceLifecycle, SessionCapGivesTooManySessions) {
  ServiceConfig cfg;
  cfg.max_sessions = 2;
  ServiceCore core(cfg);
  create(core, "a", kTwoSinkGraph);
  create(core, "b", kTwoSinkGraph);
  expect_error(core.handle(1, request(9, "create_session",
                                      "\"name\":\"c\",\"graph\":" +
                                          quoted_graph(kTwoSinkGraph))),
               "too_many_sessions");
  EXPECT_EQ(core.session_count(), 2u);
}

TEST(ServiceLifecycle, ZeroQuotaRejectsEverySessionOpAsBusy) {
  ServiceConfig cfg;
  cfg.max_inflight_per_session = 0;
  ServiceCore core(cfg);
  create(core, "g", kTwoSinkGraph);
  expect_error(core.handle(1, request(2, "disparity",
                                      "\"session\":\"g\",\"sink\":\"F1\"")),
               "busy");
  expect_error(core.handle(1, request(3, "graph", "\"session\":\"g\"")),
               "busy");
}

TEST(ServiceLifecycle, IdleEvictionSparesActiveAndSubscribedSessions) {
  ServiceCore core;
  create(core, "touched", kTwoSinkGraph);
  create(core, "subscribed", kTwoSinkGraph);
  create(core, "idle", kTwoSinkGraph);

  // "touched" is used at tick 100; "subscribed" holds a subscription from
  // tick 1; "idle" is never addressed after creation.
  expect_ok(core.handle(1, request(2, "graph", "\"session\":\"touched\""),
                        /*tick=*/100));
  expect_ok(core.handle(
      2, request(3, "subscribe", "\"session\":\"subscribed\",\"sink\":\"F1\""),
      /*tick=*/1));

  const std::vector<std::string> evicted = core.evict_idle(/*older_than=*/50);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "idle");
  EXPECT_EQ(core.session_count(), 2u);
}

// --- error contract ---------------------------------------------------------

TEST(ServiceErrors, MalformedPayloadsGetStructuredRepliesWithNullId) {
  ServiceCore core;
  for (const char* payload :
       {"", "not json", "{\"op\":", "[1,2,3]", "42", "{\"no_op\": true}"}) {
    const Outcome out = core.handle(1, payload);
    const JsonValue doc = reply_of(out);
    EXPECT_FALSE(doc.at("ok").boolean) << payload;
    EXPECT_EQ(doc.at("error").at("code").string, "bad_request") << payload;
    EXPECT_TRUE(doc.at("id").is_null()) << payload;
    EXPECT_TRUE(out.pushes.empty());
  }
  // An id that did parse is echoed back even when the body is bad.
  const JsonValue doc =
      reply_of(core.handle(1, "{\"id\": 77, \"op\": \"disparity\"}"));
  EXPECT_EQ(doc.at("id").number, 77.0);
  EXPECT_FALSE(doc.at("ok").boolean);
}

TEST(ServiceErrors, UnknownTasksAndBadOptionsAndBadGraphs) {
  ServiceCore core;
  create(core, "g", kTwoSinkGraph);

  const std::string msg = expect_error(
      core.handle(1, request(2, "disparity",
                             "\"session\":\"g\",\"sink\":\"NOPE\"")),
      "invalid_argument");
  EXPECT_NE(msg.find("NOPE"), std::string::npos);

  expect_error(core.handle(1, request(3, "disparity",
                                      "\"session\":\"g\",\"sink\":\"F1\","
                                      "\"options\":{\"method\":\"sideways\"}")),
               "bad_request");
  expect_error(core.handle(1, request(4, "disparity",
                                      "\"session\":\"g\",\"sink\":99")),
               "invalid_argument");
  // A chain that is not a path of the graph.
  expect_error(
      core.handle(1, request(5, "latency",
                             "\"session\":\"g\",\"chain\":[\"A\",\"D\"]")),
      "invalid_argument");
  // Graph text that fails to parse surfaces the serializer's diagnostic.
  expect_error(core.handle(1, request(6, "create_session",
                                      "\"name\":\"bad\",\"graph\":\"task\"")),
               "invalid_argument");
  EXPECT_EQ(core.session_count(), 1u);
}

TEST(ServiceErrors, WireIntegersAtTheInt64EdgesAreRangeChecked) {
  ServiceCore core;
  create(core, "g", kTwoSinkGraph);
  const auto set_offset = [&core](std::int64_t id, const std::string& ns) {
    return core.handle(
        1, request(id, "mutate",
                   "\"session\":\"g\",\"edits\":[{\"kind\":\"set_offset\","
                   "\"task\":\"A\",\"offset_ns\":" +
                       ns + "}]"));
  };
  // 2^63 is one past INT64_MAX and an exact double: it must be a
  // structured protocol error, not an out-of-range cast.
  const std::string msg =
      expect_error(set_offset(2, "9223372036854775808"), "bad_request");
  EXPECT_NE(msg.find("out of integer range"), std::string::npos) << msg;
  // -2^63 is INT64_MIN itself: whatever the engine makes of the offset,
  // the wire decoder must not call it out of range.
  const JsonValue doc = reply_of(set_offset(3, "-9223372036854775808"));
  if (!doc.at("ok").boolean) {
    EXPECT_EQ(doc.at("error").at("message").string.find("out of integer range"),
              std::string::npos)
        << doc.at("error").at("message").string;
  }
  // INT64_MAX itself is a valid wire integer: the engine, not the decoder,
  // rejects it as an offset.
  EXPECT_NE(expect_error(set_offset(4, "9223372036854775807"),
                         "invalid_argument")
                .find("precondition failed"),
            std::string::npos);
  // Integers are read from the token, not through a double that rounds
  // above 2^53: the echoed request id is exactly the one sent.
  for (const std::string id : {"9007199254740993", "9223372036854775807"}) {
    const std::string reply =
        core.handle(1, "{\"id\":" + id + ",\"op\":\"ping\"}").reply;
    EXPECT_NE(reply.find("\"id\": " + id + ","), std::string::npos) << reply;
  }
  // Integer fields take integer tokens only.
  for (const char* ns : {"1.5", "1e3", "0.0"}) {
    const std::string m = expect_error(set_offset(5, ns), "bad_request");
    EXPECT_NE(m.find("offset_ns must be an integer"), std::string::npos) << m;
  }
  // int-typed fields are range-checked, not cut to their low 32 bits:
  // 2^32 + 2 must not commit as 2.
  const std::string edits[] = {
      R"({"kind":"set_buffer","from":"A","to":"F1","buffer_size":4294967298})",
      R"({"kind":"set_priority","task":"A","priority":4294967298})",
      R"({"kind":"set_policy","ecu":4294967296,"policy":"edf"})"};
  for (const std::string& edit : edits) {
    const std::string m = expect_error(
        core.handle(1, request(6, "mutate",
                               "\"session\":\"g\",\"edits\":[" + edit + "]")),
        "bad_request");
    EXPECT_NE(m.find("out of integer range"), std::string::npos) << m;
  }
}

TEST(ServiceErrors, PreconditionMessagesNameSourcesRelativeToTheRepo) {
  // Engine preconditions reach clients verbatim; the file they name must
  // not depend on where the library was built.
  ServiceCore core;
  create(core, "g", kTwoSinkGraph);
  const std::string msg = expect_error(
      core.handle(1, request(2, "mutate",
                             "\"session\":\"g\",\"edits\":[{\"kind\":"
                             "\"set_offset\",\"task\":\"A\",\"offset_ns\":"
                             "-9223372036854775808}]")),
      "invalid_argument");
  EXPECT_NE(msg.find(" at src/graph/task.cpp:"), std::string::npos) << msg;
  EXPECT_EQ(msg.find(" /"), std::string::npos) << msg;
}

TEST(ServiceErrors, OversizedReplyNamesTheCap) {
  ServiceConfig cfg;
  cfg.max_frame_bytes = 4096;
  ServiceCore core(cfg);
  const JsonValue doc = parse_json(core.oversized_reply(999'999));
  EXPECT_FALSE(doc.at("ok").boolean);
  EXPECT_EQ(doc.at("error").at("code").string, "oversized_frame");
  EXPECT_NE(doc.at("error").at("message").string.find("999999"),
            std::string::npos);
  EXPECT_NE(doc.at("error").at("message").string.find("4096"),
            std::string::npos);
}

// --- rollback / exception-safety --------------------------------------------

TEST(ServiceRollback, RejectedMutationPreservesMessageAndState) {
  ServiceCore core;
  create(core, "g", kTwoSinkGraph);

  const JsonValue before = expect_ok(core.handle(
      1, request(2, "disparity", "\"session\":\"g\",\"sink\":\"F1\"")));
  const JsonValue dump_before =
      expect_ok(core.handle(1, request(3, "graph", "\"session\":\"g\"")));

  // bcet > wcet fails parameter validation: the engine rejects the batch
  // with the strong guarantee and the original diagnostic must reach the
  // client verbatim (not a generic "mutation failed").
  const std::string msg = expect_error(
      core.handle(1, request(4, "mutate",
                             "\"session\":\"g\",\"edits\":[{\"kind\":"
                             "\"set_wcet_range\",\"task\":\"A\","
                             "\"bcet_ns\":5000000,\"wcet_ns\":1000000}]")),
      "invalid_argument");
  EXPECT_FALSE(msg.empty());

  // A structural batch (add_edge creating a cycle) exercises the
  // snapshot-and-rollback path; the validator's message survives it.
  const std::string cyc = expect_error(
      core.handle(1, request(5, "mutate",
                             "\"session\":\"g\",\"edits\":[{\"kind\":"
                             "\"add_edge\",\"from\":\"F1\",\"to\":\"A\"}]")),
      "invalid_argument");
  EXPECT_FALSE(cyc.empty());

  // State is exactly as before either failure.
  const JsonValue after = expect_ok(core.handle(
      1, request(6, "disparity", "\"session\":\"g\",\"sink\":\"F1\"")));
  EXPECT_EQ(after.at("worst_case_ns").number, before.at("worst_case_ns").number);
  const JsonValue dump_after =
      expect_ok(core.handle(1, request(7, "graph", "\"session\":\"g\"")));
  EXPECT_EQ(dump_after.at("text").string, dump_before.at("text").string);
}

TEST(ServiceMutate, SetPolicyRoundTripsThroughGraphDump) {
  ServiceCore core;
  create(core, "g", kTwoSinkGraph);

  // ECU 0 hosts A and B (both feeding F1 only): flipping its policy must
  // commit, dirty F1 alone, and round-trip through the graph dump.
  const JsonValue r = expect_ok(core.handle(
      1, request(2, "mutate",
                 "\"session\":\"g\",\"edits\":[{\"kind\":\"set_policy\","
                 "\"ecu\":0,\"policy\":\"edf\"}]")));
  EXPECT_EQ(r.at("edits").number, 1.0);
  std::set<double> dirty;
  for (const JsonValue& d : r.at("dirty_sinks").items()) dirty.insert(d.number);
  EXPECT_TRUE(dirty.count(kSinkF1));
  EXPECT_FALSE(dirty.count(kSinkF2));

  const JsonValue dump =
      expect_ok(core.handle(1, request(3, "graph", "\"session\":\"g\"")));
  EXPECT_NE(dump.at("text").string.find("policy 0 edf"), std::string::npos);
  EXPECT_EQ(graph_from_text(dump.at("text").string).policy(0),
            SchedPolicy::kEdf);

  // Setting the default back erases the directive from the dump.
  expect_ok(core.handle(
      1, request(4, "mutate",
                 "\"session\":\"g\",\"edits\":[{\"kind\":\"set_policy\","
                 "\"ecu\":0,\"policy\":\"nonpreemptive\"}]")));
  const JsonValue dump2 =
      expect_ok(core.handle(1, request(5, "graph", "\"session\":\"g\"")));
  EXPECT_EQ(dump2.at("text").string.find("policy"), std::string::npos);
}

TEST(ServiceMutate, SetPolicyRejectsBadArguments) {
  ServiceCore core;
  create(core, "g", kTwoSinkGraph);
  const JsonValue dump_before =
      expect_ok(core.handle(1, request(2, "graph", "\"session\":\"g\"")));

  // Unknown policy name: schema-level rejection, nothing committed.
  expect_error(core.handle(
                   1, request(3, "mutate",
                              "\"session\":\"g\",\"edits\":[{\"kind\":"
                              "\"set_policy\",\"ecu\":0,\"policy\":\"rr\"}]")),
               "bad_request");
  // kNoEcu: the engine's precondition surfaces as invalid_argument.
  expect_error(core.handle(
                   1, request(4, "mutate",
                              "\"session\":\"g\",\"edits\":[{\"kind\":"
                              "\"set_policy\",\"ecu\":-1,\"policy\":\"edf\"}]")),
               "invalid_argument");

  const JsonValue dump_after =
      expect_ok(core.handle(1, request(5, "graph", "\"session\":\"g\"")));
  EXPECT_EQ(dump_after.at("text").string, dump_before.at("text").string);
}

// --- subscriptions ----------------------------------------------------------

/// One full subscribe → mutate → push cycle on the two-sink graph.
class ServiceSubscription : public ::testing::Test {
 protected:
  void SetUp() override {
    create(core, "g", kTwoSinkGraph);
    // Client 1 watches both sinks.
    const JsonValue s1 = expect_ok(core.handle(
        1, request(2, "subscribe", "\"session\":\"g\",\"sink\":\"F1\"")));
    EXPECT_EQ(s1.at("sink").number, static_cast<double>(kSinkF1));
    baseline_f1 = s1.at("worst_case_ns").number;
    const JsonValue s2 = expect_ok(core.handle(
        1, request(3, "subscribe", "\"session\":\"g\",\"sink\":\"F2\"")));
    baseline_f2 = s2.at("worst_case_ns").number;
  }

  /// Mutate one task's WCET range (from client 2) and return the outcome.
  Outcome bump_wcet(const std::string& task, long wcet_ns) {
    return core.handle(
        2, request(10, "mutate",
                   "\"session\":\"g\",\"edits\":[{\"kind\":\"set_wcet_range\","
                   "\"task\":\"" +
                       task + "\",\"bcet_ns\":500000,\"wcet_ns\":" +
                       std::to_string(wcet_ns) + "}]"));
  }

  /// The service's current answer for a sink.
  double query(const std::string& sink) {
    return expect_ok(core.handle(3, request(11, "disparity",
                                            "\"session\":\"g\",\"sink\":\"" +
                                                sink + "\"")))
        .at("worst_case_ns")
        .number;
  }

  ServiceCore core;
  double baseline_f1 = 0;
  double baseline_f2 = 0;
};

TEST_F(ServiceSubscription, PushesFireForExactlyTheDirtiedSink) {
  // Mutating A dirties F1 only.
  const Outcome out = bump_wcet("A", 3'000'000);
  const JsonValue result = expect_ok(out);

  const auto& dirty = result.at("dirty_sinks").items();
  std::set<double> dirty_set;
  for (const JsonValue& d : dirty) dirty_set.insert(d.number);
  EXPECT_TRUE(dirty_set.count(kSinkF1)) << out.reply;
  EXPECT_FALSE(dirty_set.count(kSinkF2)) << out.reply;

  ASSERT_EQ(out.pushes.size(), 1u);
  EXPECT_EQ(out.pushes[0].client, 1u);
  const JsonValue push = parse_json(out.pushes[0].payload);
  EXPECT_EQ(push.at("push").string, "disparity");
  EXPECT_EQ(push.at("session").string, "g");
  EXPECT_EQ(push.at("sink").number, static_cast<double>(kSinkF1));
  EXPECT_EQ(push.at("epoch").number, result.at("epoch").number);
  EXPECT_GE(push.at("serial").number, 1.0);

  // The pushed value is the committed state's value: it matches both a
  // re-query through the service and a fresh engine on the dumped graph.
  EXPECT_EQ(push.at("worst_case_ns").number, query("F1"));
  const JsonValue dump =
      expect_ok(core.handle(3, request(12, "graph", "\"session\":\"g\"")));
  AnalysisEngine fresh(graph_from_text(dump.at("text").string));
  EXPECT_EQ(push.at("worst_case_ns").number,
            static_cast<double>(fresh.disparity(kSinkF1).worst_case.count()));

  // Mutating D dirties F2 only.
  const Outcome out2 = bump_wcet("D", 3'000'000);
  const JsonValue result2 = expect_ok(out2);
  std::set<double> dirty2;
  for (const JsonValue& d : result2.at("dirty_sinks").items()) {
    dirty2.insert(d.number);
  }
  EXPECT_TRUE(dirty2.count(kSinkF2));
  EXPECT_FALSE(dirty2.count(kSinkF1));
  ASSERT_EQ(out2.pushes.size(), 1u);
  const JsonValue push2 = parse_json(out2.pushes[0].payload);
  EXPECT_EQ(push2.at("sink").number, static_cast<double>(kSinkF2));
  EXPECT_EQ(push2.at("worst_case_ns").number, query("F2"));
}

TEST_F(ServiceSubscription, OffsetMutationsDirtyNothingAndPushNothing) {
  // Offsets enter no cached artifact (DESIGN.md §9): committing one must
  // produce an epoch but neither dirty sinks nor pushes.
  const Outcome out = core.handle(
      2, request(10, "mutate",
                 "\"session\":\"g\",\"edits\":[{\"kind\":\"set_offset\","
                 "\"task\":\"A\",\"offset_ns\":1000000}]"));
  const JsonValue result = expect_ok(out);
  EXPECT_TRUE(result.at("dirty_sinks").items().empty());
  EXPECT_TRUE(out.pushes.empty());
}

TEST_F(ServiceSubscription, UnsubscribeAndDisconnectStopPushes) {
  const JsonValue r = expect_ok(core.handle(
      1, request(4, "unsubscribe", "\"session\":\"g\",\"sink\":\"F1\"")));
  EXPECT_TRUE(r.at("removed").boolean);
  EXPECT_EQ(bump_wcet("A", 2'500'000).pushes.size(), 0u);

  // F2 is still watched...
  EXPECT_EQ(bump_wcet("D", 2'500'000).pushes.size(), 1u);
  // ...until the client disconnects, which drops every subscription.
  core.disconnect(1);
  EXPECT_EQ(bump_wcet("D", 2'600'000).pushes.size(), 0u);

  // Unsubscribing a never-subscribed sink reports removed: false.
  const JsonValue r2 = expect_ok(core.handle(
      9, request(5, "unsubscribe", "\"session\":\"g\",\"sink\":\"F1\"")));
  EXPECT_FALSE(r2.at("removed").boolean);
}

TEST_F(ServiceSubscription, TwoSubscribersBothReceiveTheSamePayload) {
  expect_ok(core.handle(
      7, request(6, "subscribe", "\"session\":\"g\",\"sink\":\"F1\"")));
  const Outcome out = bump_wcet("A", 4'000'000);
  ASSERT_EQ(out.pushes.size(), 2u);
  std::set<ClientId> clients{out.pushes[0].client, out.pushes[1].client};
  EXPECT_EQ(clients, (std::set<ClientId>{1u, 7u}));
  EXPECT_EQ(out.pushes[0].payload, out.pushes[1].payload);
}

// --- reply truncation -------------------------------------------------------

TEST(ServiceReplies, PairListsAreCappedAndFlagged) {
  ServiceConfig cfg;
  cfg.max_reply_pairs = 1;
  ServiceCore core(cfg);
  create(core, "g", kThreeSourceGraph);
  const JsonValue r = expect_ok(core.handle(
      1, request(2, "disparity", "\"session\":\"g\",\"sink\":\"F\"")));
  EXPECT_LE(r.at("pairs").items().size(), 1u);
  EXPECT_TRUE(r.at("pairs_truncated").boolean);
  // The analysis itself ran in full: the worst case equals an uncapped
  // core's answer.
  ServiceCore uncapped;
  create(uncapped, "g", kThreeSourceGraph);
  const JsonValue full = expect_ok(uncapped.handle(
      1, request(2, "disparity", "\"session\":\"g\",\"sink\":\"F\"")));
  EXPECT_EQ(r.at("worst_case_ns").number, full.at("worst_case_ns").number);
  EXPECT_GT(full.at("pairs").items().size(), 1u);
  EXPECT_FALSE(full.at("pairs_truncated").boolean);
}

// --- metrics ----------------------------------------------------------------

TEST(ServiceMetrics, GlobalAndPerSessionSnapshots) {
  ServiceCore core;
  create(core, "g", kTwoSinkGraph);
  expect_ok(core.handle(1, request(2, "disparity",
                                   "\"session\":\"g\",\"sink\":\"F1\"")));

  const JsonValue global =
      expect_ok(core.handle(1, request(3, "metrics"))).at("metrics");
  EXPECT_GE(global.at("counters").at("service.requests").number, 3.0);
  EXPECT_GE(global.at("counters").at("service.op.disparity").number, 1.0);
  EXPECT_GE(global.at("histograms").at("service.request_ns").at("count").number,
            1.0);

  const JsonValue per_session =
      expect_ok(core.handle(1, request(4, "metrics", "\"session\":\"g\"")))
          .at("metrics");
  EXPECT_GE(per_session.at("counters").at("engine.reports.misses").number, 1.0);

  expect_error(core.handle(1, request(5, "metrics", "\"session\":\"zz\"")),
               "no_such_session");
}

// --- concurrency (run under -DCETA_SANITIZE=thread as well) ------------------

TEST(ServiceConcurrency, MixedTrafficAcrossThreadsStaysConsistent) {
  ServiceCore core;
  constexpr int kSessions = 4;
  for (int s = 0; s < kSessions; ++s) {
    create(core, "s" + std::to_string(s), kTwoSinkGraph);
  }

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;
  std::atomic<int> errors{0};
  std::atomic<std::uint64_t> pushes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ClientId me = static_cast<ClientId>(t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string session = "s" + std::to_string((t + i) % kSessions);
        Outcome out;
        switch (i % 5) {
          case 0:
            out = core.handle(me, request(i, "disparity",
                                          "\"session\":\"" + session +
                                              "\",\"sink\":\"F1\""));
            break;
          case 1:
            out = core.handle(
                me, request(i, "latency",
                            "\"session\":\"" + session +
                                "\",\"chain\":[\"S0\",\"A\",\"F1\"]"));
            break;
          case 2:
            out = core.handle(
                me, request(i, "mutate",
                            "\"session\":\"" + session +
                                "\",\"edits\":[{\"kind\":\"set_wcet_range\","
                                "\"task\":\"A\",\"bcet_ns\":500000,"
                                "\"wcet_ns\":" +
                                std::to_string(1'000'000 + (i % 9) * 100'000) +
                                "}]"));
            break;
          case 3:
            out = core.handle(me, request(i, "subscribe",
                                          "\"session\":\"" + session +
                                              "\",\"sink\":\"F1\""));
            break;
          default:
            out = core.handle(me, request(i, "unsubscribe",
                                          "\"session\":\"" + session +
                                              "\",\"sink\":\"F1\""));
            break;
        }
        const JsonValue doc = parse_json(out.reply);
        if (!doc.at("ok").boolean) errors.fetch_add(1);
        pushes.fetch_add(out.pushes.size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  // Every session's final state matches a fresh engine on its own dump.
  for (int s = 0; s < kSessions; ++s) {
    const std::string session = "s" + std::to_string(s);
    const JsonValue dump = expect_ok(
        core.handle(99, request(1, "graph", "\"session\":\"" + session + "\"")));
    AnalysisEngine fresh(graph_from_text(dump.at("text").string));
    const JsonValue served = expect_ok(
        core.handle(99, request(2, "disparity",
                                "\"session\":\"" + session +
                                    "\",\"sink\":\"F1\"")));
    EXPECT_EQ(served.at("worst_case_ns").number,
              static_cast<double>(fresh.disparity(kSinkF1).worst_case.count()))
        << session;
  }
}

}  // namespace
}  // namespace ceta::service
