// Plain-text (de)serialization of cause-effect graphs.
//
// Line-oriented format, stable for fixtures and round-trip testing:
//
//   # comment / blank lines ignored
//   task <name> <wcet_ns> <bcet_ns> <period_ns> <offset_ns> <prio> <ecu>
//        [implicit|let] [J=<jitter_ns>]   (same line, optional attributes)
//   edge <from_name> <to_name> [buffer_size]
//   policy <ecu> <nonpreemptive|preemptive|edf>
//
// Task ids are assigned in declaration order; edges refer to tasks by name.
// Parsing is strict: every numeric field is a whole decimal integer token
// that fits its type, and no directive takes tokens beyond its own.

#pragma once

#include <iosfwd>
#include <string>

#include "graph/task_graph.hpp"

namespace ceta {

/// Serialize to the text format above.
std::string to_text(const TaskGraph& g);

/// Parse the text format; throws PreconditionError naming the line number
/// and the offending token on malformed input (non-numeric or trailing
/// tokens), unknown task names or duplicate definitions.
TaskGraph graph_from_text(const std::string& text);

}  // namespace ceta
