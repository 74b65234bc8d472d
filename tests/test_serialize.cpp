#include "graph/serialize.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "graph/dot.hpp"
#include "graph/generator.hpp"
#include "helpers.hpp"

namespace ceta {
namespace {

bool graphs_equal(const TaskGraph& a, const TaskGraph& b) {
  return to_text(a) == to_text(b);
}

TEST(Serialize, RoundTripFixture) {
  const TaskGraph g = testing::diamond_graph();
  const TaskGraph parsed = graph_from_text(to_text(g));
  EXPECT_TRUE(graphs_equal(g, parsed));
  EXPECT_NO_THROW(parsed.validate());
}

TEST(Serialize, RoundTripRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const TaskGraph g = testing::random_dag_graph(12, 3, seed);
    EXPECT_TRUE(graphs_equal(g, graph_from_text(to_text(g))));
  }
}

TEST(Serialize, BufferSizesPreserved) {
  TaskGraph g = testing::simple_chain_graph();
  g.set_buffer_size(0, 1, 7);
  const TaskGraph parsed = graph_from_text(to_text(g));
  EXPECT_EQ(parsed.channel(0, 1).buffer_size, 7);
  EXPECT_EQ(parsed.channel(1, 2).buffer_size, 1);
}

TEST(Serialize, ParseHandComposedText) {
  const std::string text = R"(# comment line
task S 0 0 10000000 0 0 -1
task A 1000000 500000 10000000 0 0 0

edge S A 4
)";
  const TaskGraph g = graph_from_text(text);
  ASSERT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.task(0).name, "S");
  EXPECT_EQ(g.task(1).wcet, Duration::ms(1));
  EXPECT_EQ(g.task(1).bcet, Duration::us(500));
  EXPECT_EQ(g.channel(0, 1).buffer_size, 4);
}

TEST(Serialize, ParseErrorsCarryLineNumbers) {
  try {
    graph_from_text("task S 0 0 10000000 0 0 -1\nbogus line\n");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Serialize, ParseRejectsDuplicatesAndUnknowns) {
  EXPECT_THROW(
      graph_from_text("task A 0 0 1 0 0 -1\ntask A 0 0 1 0 0 -1\n"),
      PreconditionError);
  EXPECT_THROW(graph_from_text("task A 0 0 1 0 0 -1\nedge A B\n"),
               PreconditionError);
  EXPECT_THROW(graph_from_text("edge A B\n"), PreconditionError);
  EXPECT_THROW(
      graph_from_text(
          "task A 0 0 1 0 0 -1\ntask B 0 0 1 0 0 0\nedge A B 0\n"),
      PreconditionError);
  EXPECT_THROW(graph_from_text("task A\n"), PreconditionError);
}

TEST(Serialize, PolicyDirectiveRoundTrips) {
  TaskGraph g = testing::diamond_graph();
  g.set_policy(0, SchedPolicy::kPreemptive);
  g.set_policy(1, SchedPolicy::kEdf);
  const std::string text = to_text(g);
  EXPECT_NE(text.find("policy 0 preemptive"), std::string::npos);
  EXPECT_NE(text.find("policy 1 edf"), std::string::npos);
  const TaskGraph parsed = graph_from_text(text);
  EXPECT_TRUE(graphs_equal(g, parsed));
  EXPECT_EQ(parsed.policy(0), SchedPolicy::kPreemptive);
  EXPECT_EQ(parsed.policy(1), SchedPolicy::kEdf);
  EXPECT_EQ(parsed.policy(2), SchedPolicy::kNonPreemptive);
}

TEST(Serialize, DefaultPolicyIsNotEmitted) {
  // Pre-seam graphs must serialize byte-identically: resetting an
  // override to the default erases it from the text entirely.
  TaskGraph g = testing::diamond_graph();
  const std::string before = to_text(g);
  EXPECT_EQ(before.find("policy"), std::string::npos);
  g.set_policy(0, SchedPolicy::kEdf);
  g.set_policy(0, SchedPolicy::kNonPreemptive);
  EXPECT_EQ(to_text(g), before);
  // An explicit nonpreemptive directive parses but round-trips to
  // nothing, since it is the default.
  const TaskGraph parsed = graph_from_text(before + "policy 0 nonpreemptive\n");
  EXPECT_EQ(to_text(parsed), before);
}

TEST(Serialize, PolicyParseErrors) {
  const std::string base = "task A 0 0 10000000 0 0 -1\n";
  EXPECT_THROW(graph_from_text(base + "policy 0 bogus\n"), PreconditionError);
  EXPECT_THROW(graph_from_text(base + "policy -1 edf\n"), PreconditionError);
  EXPECT_THROW(graph_from_text(base + "policy zero edf\n"), PreconditionError);
  EXPECT_THROW(graph_from_text(base + "policy 0\n"), PreconditionError);
}

/// The PreconditionError message of parsing `text`, or "" if it parses.
std::string parse_error(const std::string& text) {
  try {
    graph_from_text(text);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(Serialize, StrictParserNamesLineAndToken) {
  const std::string tasks =
      "task A 0 0 10000000 0 0 -1\ntask B 1000 1000 10000000 0 0 0\n";
  const auto expect_rejected = [&](const std::string& line,
                                   const std::string& token) {
    const std::string what = parse_error(tasks + line + "\n");
    EXPECT_NE(what.find("line 3"), std::string::npos) << line << ": " << what;
    EXPECT_NE(what.find("'" + token + "'"), std::string::npos)
        << line << ": " << what;
  };
  expect_rejected("edge A B 3 junk", "junk");  // trailing token
  expect_rejected("edge A B junk", "junk");    // non-numeric buffer size
  expect_rejected("policy 0 edf junk", "junk");
  expect_rejected("policy 0x edf", "0x");
  // Numbers must be whole tokens: a numeric prefix is not enough.
  const std::string jitter_line = "task C 0 0 10000000 0 0 -1 J=5x";
  const std::string what = parse_error(jitter_line + "\n");
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  EXPECT_NE(what.find("'J=5x'"), std::string::npos) << what;
  EXPECT_NE(parse_error("task C 0 0 10000000 0 1.5 -1\n").find("'1.5'"),
            std::string::npos);
  // A buffer size that is numeric but below 1 keeps its own diagnostic.
  EXPECT_NE(parse_error(tasks + "edge A B 0\n").find("must be >= 1"),
            std::string::npos);
  // The well-formed forms still parse.
  const TaskGraph g = graph_from_text(
      tasks + "edge A B 3\npolicy 0 edf\n# trailing comment\n");
  EXPECT_EQ(g.channel(0, 1).buffer_size, 3);
  EXPECT_EQ(g.policy(0), SchedPolicy::kEdf);
}

TEST(Dot, ContainsStructure) {
  TaskGraph g = testing::diamond_graph();
  g.set_buffer_size(0, 1, 3);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph cause_effect"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("buf=3"), std::string::npos);
  EXPECT_NE(dot.find("\"S\\n"), std::string::npos);
  // Every edge appears.
  for (const Edge& e : g.edges()) {
    const std::string arrow =
        "n" + std::to_string(e.from) + " -> n" + std::to_string(e.to);
    EXPECT_NE(dot.find(arrow), std::string::npos) << arrow;
  }
}

}  // namespace
}  // namespace ceta
