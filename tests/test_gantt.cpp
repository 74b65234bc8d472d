#include "sim/gantt.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "helpers.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(Gantt, DeterministicChainLayout) {
  // S (T=10ms) -> A (W=2ms, T=10ms), 20ms window, 20 cells = 1ms/cell.
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  const TaskId sid = g.add_task(s);
  Task a;
  a.name = "A";
  a.wcet = a.bcet = Duration::ms(2);
  a.period = Duration::ms(10);
  a.ecu = 0;
  a.priority = 0;
  const TaskId aid = g.add_task(a);
  g.add_edge(sid, aid);
  g.validate();

  SimOptions opt;
  opt.duration = Duration::ms(20);
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kWorstCase;
  const SimResult res = Simulator(g, opt).run();

  GanttOptions gopt;
  gopt.from = Duration::zero();
  gopt.to = Duration::ms(20);
  gopt.width = 20;
  const auto lines = lines_of(render_gantt(g, res.trace, gopt));
  ASSERT_EQ(lines.size(), 3u);  // header + 2 task rows
  // Source: release markers at cells 0 and 10.
  EXPECT_EQ(lines[1], "S  ^.........^.........");
  // A executes [0,2] and [10,12] (inclusive end cell).
  EXPECT_EQ(lines[2], "A  ###.......###.......");
}

TEST(Gantt, ReleaseMarkerDoesNotOverwriteExecution) {
  // A released and started at the same instant shows '#', not '^'.
  const TaskGraph g = testing::simple_chain_graph();
  SimOptions opt;
  opt.duration = Duration::ms(10);
  opt.record_trace = true;
  opt.exec_model = ExecTimeModel::kWorstCase;
  const SimResult res = Simulator(g, opt).run();
  GanttOptions gopt;
  gopt.from = Duration::zero();
  gopt.to = Duration::ms(10);
  gopt.width = 10;
  const auto lines = lines_of(render_gantt(g, res.trace, gopt));
  EXPECT_EQ(lines[2][3], '#');  // "A  #........." first cell
}

TEST(Gantt, AutoWindowCoversAllEvents) {
  const TaskGraph g = testing::diamond_graph();
  SimOptions opt;
  opt.duration = Duration::ms(60);
  opt.record_trace = true;
  const SimResult res = Simulator(g, opt).run();
  const std::string out = render_gantt(g, res.trace);
  EXPECT_FALSE(out.empty());
  const auto lines = lines_of(out);
  EXPECT_EQ(lines.size(), 1u + g.num_tasks());
  // Every task row carries at least one mark.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find_first_of("#^"), std::string::npos) << lines[i];
  }
}

TEST(Gantt, EmptyTraceRendersEmpty) {
  const TaskGraph g = testing::simple_chain_graph();
  Trace empty;
  empty.tasks.resize(g.num_tasks());
  EXPECT_TRUE(render_gantt(g, empty).empty());
}

TEST(Gantt, Preconditions) {
  const TaskGraph g = testing::simple_chain_graph();
  Trace mismatched;  // wrong size
  GanttOptions gopt;
  EXPECT_THROW(render_gantt(g, mismatched, gopt), PreconditionError);
  Trace ok;
  ok.tasks.resize(g.num_tasks());
  gopt.width = 1;
  EXPECT_THROW(render_gantt(g, ok, gopt), PreconditionError);
}

}  // namespace
}  // namespace ceta
