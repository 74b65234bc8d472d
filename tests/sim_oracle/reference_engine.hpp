// Reference simulator: the pre-calendar-queue engine, kept verbatim as a
// test-only oracle for differential testing.
//
// simulate_reference() implements exactly the §II-B semantics of
// sim/simulator.hpp with the original data structures (binary heap event
// queue, std::deque channels, per-job Provenance vectors, per-run
// allocation).  Randomness goes through the same counter-based SimStream
// as the shipped core, so for any (graph, options, seed) the two engines
// process the identical event sequence and must produce field-for-field
// identical SimResults — the property pinned by the reference-equivalence
// sweeps in tests/test_simulator.cpp.
//
// Do not extend this engine; new functionality goes into Simulator.  Its
// one job is being the oracle for trace equivalence.

#pragma once

#include "graph/task_graph.hpp"
#include "sim/options.hpp"

namespace ceta::sim {

/// Run one simulation on the reference engine.  Same contract as
/// Simulator::run(options.seed): validates options (InvalidOptionsError)
/// and the graph, throws CapacityError past max_jobs.
SimResult simulate_reference(const TaskGraph& g, const SimOptions& opt);

}  // namespace ceta::sim
