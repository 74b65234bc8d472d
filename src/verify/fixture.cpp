#include "verify/fixture.hpp"

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "graph/serialize.hpp"

namespace ceta::verify {

namespace {

/// Directive lines must stay single-line comments for graph_from_text;
/// squash any newline a detail string might carry.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

}  // namespace

std::string to_text(const Fixture& f) {
  std::ostringstream os;
  os << "# ceta-fixture v1\n";
  os << "# property: " << property_name(f.property) << '\n';
  os << "# task: " << f.task << '\n';
  os << "# sim-seed: " << f.sim_seed << '\n';
  if (!f.detail.empty()) os << "# detail: " << one_line(f.detail) << '\n';
  os << ceta::to_text(f.graph);
  return os.str();
}

Fixture fixture_from_text(const std::string& text) {
  Fixture f;
  bool saw_header = false, saw_property = false, saw_task = false;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind("# ceta-fixture", 0) == 0) {
      saw_header = true;
      continue;
    }
    const auto directive = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string("# ") + key + ": ";
      if (line.rfind(prefix, 0) != 0) return std::nullopt;
      return line.substr(prefix.size());
    };
    if (const auto prop = directive("property")) {
      const std::optional<Property> p = property_from_name(*prop);
      if (!p) {
        throw PreconditionError("fixture_from_text: line " +
                                std::to_string(line_no) +
                                ": unknown property '" + *prop + "'");
      }
      f.property = *p;
      saw_property = true;
    } else if (const auto task = directive("task")) {
      f.task = *task;
      saw_task = true;
    } else if (const auto seed = directive("sim-seed")) {
      if (!parse_whole(*seed, f.sim_seed)) {
        throw PreconditionError("fixture_from_text: line " +
                                std::to_string(line_no) +
                                ": malformed sim-seed '" + *seed + "'");
      }
    } else if (const auto detail = directive("detail")) {
      f.detail = *detail;
    }
  }
  if (!saw_header) {
    throw PreconditionError("fixture_from_text: missing '# ceta-fixture' header");
  }
  if (!saw_property || !saw_task) {
    throw PreconditionError(
        "fixture_from_text: missing 'property' or 'task' directive");
  }
  f.graph = graph_from_text(text);  // directives are plain comments to it
  return f;
}

TaskId fixture_task(const Fixture& f) {
  for (TaskId id = 0; id < f.graph.num_tasks(); ++id) {
    if (f.graph.task(id).name == f.task) return id;
  }
  throw PreconditionError("fixture_task: no task named '" + f.task +
                          "' in the fixture graph");
}

Fixture fixture_of(const Violation& v) {
  Fixture f;
  f.property = v.property;
  f.task = v.graph.task(v.task).name;
  f.sim_seed = v.sim_seed;
  f.detail = v.detail;
  f.graph = v.graph;
  return f;
}

std::string violation_report(const Violation& v) {
  std::ostringstream os;
  os << "INVARIANT VIOLATION: " << property_name(v.property) << '\n';
  os << "  detail:    " << v.detail << '\n';
  os << "  task:      " << v.graph.task(v.task).name << '\n';
  os << "  sim seed:  " << v.sim_seed << '\n';
  os << "  shrunk:    " << v.original_tasks << " -> " << v.graph.num_tasks()
     << " tasks (" << v.shrink_rounds << " rounds)\n";
  os << "  graph:\n";
  std::istringstream gtext(ceta::to_text(v.graph));
  std::string line;
  while (std::getline(gtext, line)) os << "    " << line << '\n';
  return os.str();
}

std::string write_fixture_file(const std::string& dir, const Violation& v,
                               std::size_t index) {
  std::filesystem::create_directories(dir);
  const std::string path = (std::filesystem::path(dir) /
                            ("ceta_violation_" + std::to_string(index) + "_" +
                             property_name(v.property) + ".txt"))
                               .string();
  std::ofstream out(path);
  if (!out) throw Error("write_fixture_file: cannot open '" + path + "'");
  out << to_text(fixture_of(v));
  if (!out) throw Error("write_fixture_file: write failed for '" + path + "'");
  return path;
}

}  // namespace ceta::verify
