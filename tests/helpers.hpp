// Shared fixtures for the ceta test suite.
//
// The fixture graphs come with hand-computed scheduling and bound values
// (documented at the definition sites) so tests can assert exact numbers.

#pragma once

#include <cstdint>

#include "graph/task_graph.hpp"
#include "sched/npfp_rta.hpp"

namespace ceta::testing {

/// Linear chain  S → A → B  on one ECU.
///
///   S: source, T = 10ms
///   A: W = B = 1ms, T = 10ms, ecu 0, prio 0
///   B: W = B = 1ms, T = 20ms, ecu 0, prio 1
///
/// Hand-computed NP-FP WCRTs: R(S) = 0, R(A) = 2ms, R(B) = 2ms.
/// Chain {S, A, B}: W = 20ms, B = 0ms.
TaskGraph simple_chain_graph();

/// Fork–join diamond:
///
///        ┌─> C (ecu0) ─┐
///   S → A               E  (sink)
///        └─> D (ecu1) ─┘
///
///   S: source, T = 10ms
///   A: W = B = 1ms, T = 10ms, ecu 0, prio 0
///   C: W = B = 1ms, T = 20ms, ecu 0, prio 1
///   D: W = B = 1ms, T = 20ms, ecu 1, prio 0
///   E: W = B = 1ms, T = 20ms, ecu 1, prio 1
///
/// Hand-computed WCRTs: R(A)=R(C)=R(D)=R(E)=2ms.
/// λ = {S,A,C,E}: W = 42ms, B = 1ms.
/// ν = {S,A,D,E}: W = 42ms, B = 1ms.
/// Theorem 2 on (λ, ν): joints {A, E}, x1 = −3, y1 = 3,
/// separation 41ms, bound 40ms (shared source, T(S) = 10ms).
TaskGraph diamond_graph();

/// Stack of `layers` diamonds in series:
///
///   S → (a₀ | b₀) → j₀ → (a₁ | b₁) → j₁ → … → j_{layers−1}
///
/// 1 + 3·layers tasks, 2^layers source chains of the last junction.  Every
/// task runs alone on its own ECU (WCRT = WCET trivially), so the fixture
/// scales to 10⁵ tasks without a schedulability search.
TaskGraph diamond_ladder(std::size_t layers);

/// Two chains of the given per-chain length merged at a sink, WATERS
/// parameters, random ECU mapping over `num_ecus`, rate-monotonic
/// priorities; guaranteed schedulable (resampled until so).
TaskGraph random_two_chain_graph(std::size_t length, int num_ecus,
                                 std::uint64_t seed);

/// Random single-sink GNM DAG with WATERS parameters, schedulable, whose
/// sink has at least two source chains.
TaskGraph random_dag_graph(std::size_t num_tasks, int num_ecus,
                           std::uint64_t seed);

/// Convenience: response-time map of a graph (asserts all schedulable).
ResponseTimeMap response_times_of(const TaskGraph& g);

}  // namespace ceta::testing
