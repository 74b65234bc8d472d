#include "graph/serialize.hpp"

#include <functional>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace ceta {

std::string to_text(const TaskGraph& g) {
  std::ostringstream os;
  os << "# ceta cause-effect graph: " << g.num_tasks() << " tasks, "
     << g.num_edges() << " edges\n";
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    const Task& t = g.task(id);
    os << "task " << t.name << ' ' << t.wcet.count() << ' ' << t.bcet.count()
       << ' ' << t.period.count() << ' ' << t.offset.count() << ' '
       << t.priority << ' ' << t.ecu
       << (t.comm == CommSemantics::kLet ? " let" : "");
    if (t.jitter != Duration::zero()) os << " J=" << t.jitter.count();
    os << '\n';
  }
  for (const Edge& e : g.edges()) {
    os << "edge " << g.task(e.from).name << ' ' << g.task(e.to).name;
    if (e.channel.buffer_size != 1) os << ' ' << e.channel.buffer_size;
    os << '\n';
  }
  // Only non-default overrides are emitted, so pre-policy graphs
  // round-trip byte-identically.
  for (const auto& [ecu, pol] : g.policies()) {
    os << "policy " << ecu << ' '
       << (pol == SchedPolicy::kPreemptive ? "preemptive" : "edf") << '\n';
  }
  return os.str();
}

namespace {

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Split one line into its whitespace-separated tokens (views into it).
void split_tokens(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_blank(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
}

}  // namespace

TaskGraph graph_from_text(const std::string& text) {
  TaskGraph g;
  std::map<std::string, TaskId, std::less<>> by_name;
  std::vector<std::string_view> tok;
  int line_no = 0;
  auto fail = [&](const std::string& why) -> void {
    throw PreconditionError("graph_from_text: line " +
                            std::to_string(line_no) + ": " + why);
  };
  auto quoted = [](std::string_view t) { return "'" + std::string(t) + "'"; };
  // Any token after the directive's last field is an error.
  auto expect_at_most = [&](std::size_t n) {
    if (tok.size() > n) fail("unexpected trailing token " + quoted(tok[n]));
  };
  auto number = [&](std::string_view t, auto& out, const char* field) {
    if (!parse_whole(t, out)) fail(std::string("malformed ") + field + " " +
                                 quoted(t));
  };
  std::string_view rest = text;
  while (!rest.empty()) {
    ++line_no;
    const std::size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    split_tokens(line, tok);
    if (tok.empty() || tok[0][0] == '#') continue;
    const std::string_view kind = tok[0];
    if (kind == "task") {
      if (tok.size() < 8) fail("malformed task line");
      Task t;
      t.name = std::string(tok[1]);
      std::int64_t wcet = 0, bcet = 0, period = 0, offset = 0;
      number(tok[2], wcet, "wcet");
      number(tok[3], bcet, "bcet");
      number(tok[4], period, "period");
      number(tok[5], offset, "offset");
      number(tok[6], t.priority, "priority");
      number(tok[7], t.ecu, "ecu");
      if (by_name.count(t.name) != 0) fail("duplicate task '" + t.name + "'");
      for (std::size_t k = 8; k < tok.size(); ++k) {  // optional attributes
        const std::string_view extra = tok[k];
        if (extra == "let") {
          t.comm = CommSemantics::kLet;
        } else if (extra == "implicit") {
          t.comm = CommSemantics::kImplicit;
        } else if (extra.substr(0, 2) == "J=") {
          std::int64_t jitter = 0;
          if (!parse_whole(extra.substr(2), jitter)) {
            fail("malformed jitter attribute " + quoted(extra));
          }
          t.jitter = Duration::ns(jitter);
        } else {
          fail("unknown task attribute " + quoted(extra));
        }
      }
      t.wcet = Duration::ns(wcet);
      t.bcet = Duration::ns(bcet);
      t.period = Duration::ns(period);
      t.offset = Duration::ns(offset);
      // Take the key before add_task consumes the task object: the RHS of
      // an assignment is sequenced before the subscript evaluation.
      const std::string name = t.name;
      by_name[name] = g.add_task(std::move(t));
    } else if (kind == "edge") {
      if (tok.size() < 3) fail("malformed edge line");
      expect_at_most(4);
      int buffer = 1;
      if (tok.size() == 4) number(tok[3], buffer, "buffer size");
      const auto fi = by_name.find(tok[1]);
      const auto ti = by_name.find(tok[2]);
      if (fi == by_name.end()) fail("unknown task " + quoted(tok[1]));
      if (ti == by_name.end()) fail("unknown task " + quoted(tok[2]));
      if (buffer < 1) fail("buffer size must be >= 1");
      g.add_edge(fi->second, ti->second, ChannelSpec{buffer});
    } else if (kind == "policy") {
      if (tok.size() < 3) fail("malformed policy line");
      expect_at_most(3);
      EcuId ecu = kNoEcu;
      number(tok[1], ecu, "policy ecu");
      if (ecu == kNoEcu) fail("policy: sources occupy no ECU");
      const std::string_view pol = tok[2];
      if (pol == "nonpreemptive") {
        g.set_policy(ecu, SchedPolicy::kNonPreemptive);
      } else if (pol == "preemptive") {
        g.set_policy(ecu, SchedPolicy::kPreemptive);
      } else if (pol == "edf") {
        g.set_policy(ecu, SchedPolicy::kEdf);
      } else {
        fail("unknown scheduling policy " + quoted(pol));
      }
    } else {
      fail("unknown directive " + quoted(kind));
    }
  }
  return g;
}

}  // namespace ceta
