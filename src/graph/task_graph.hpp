// The cause-effect graph G = <V, E> of §II-A.
//
// Vertices are periodic tasks; a directed edge (τi, τj) is the input
// channel of τj / output channel of τi.  Channels follow the implicit
// communication semantics of AUTOSAR: a job reads all its input channels
// when it starts and writes all its output channels when it finishes.  By
// default each channel is a size-1 overwrite register; the optimization of
// §IV generalizes a channel to a FIFO of the last n tokens (Lemma 6),
// where jobs read the *oldest* buffered token.

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/task.hpp"

namespace ceta {

/// Per-edge communication channel configuration.
struct ChannelSpec {
  /// FIFO depth; 1 is the plain overwrite register of the base model.
  int buffer_size = 1;
};

struct Edge {
  TaskId from = 0;
  TaskId to = 0;
  ChannelSpec channel;
};

class TaskGraph {
 public:
  TaskGraph() = default;

  /// Add a task; returns its id (ids are dense, 0-based).
  TaskId add_task(Task t);

  /// Add an edge with an optional channel spec.  Throws on unknown ids,
  /// self loops and duplicate edges.  Acyclicity is checked by validate().
  void add_edge(TaskId from, TaskId to, ChannelSpec spec = {});

  /// Remove an existing edge (throws PreconditionError if absent).  The
  /// relative order of the remaining edges, successors and predecessors is
  /// preserved, so enumeration orders stay stable.  Note the structural
  /// classification of `to` may change (it becomes a source when this was
  /// its last inbound edge) — validate() then enforces the source
  /// parameter rules.  O(E).
  void remove_edge(TaskId from, TaskId to);

  std::size_t num_tasks() const { return tasks_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  const Task& task(TaskId id) const;
  Task& task(TaskId id);

  const std::vector<Edge>& edges() const { return edges_; }

  /// Direct successors / predecessors, in insertion order.
  const std::vector<TaskId>& successors(TaskId id) const;
  const std::vector<TaskId>& predecessors(TaskId id) const;

  /// Edge lookups (has_edge, channel, set_buffer_size) cost
  /// O(out-degree of `from`).
  bool has_edge(TaskId from, TaskId to) const;

  /// Channel spec of an existing edge; throws if the edge does not exist.
  const ChannelSpec& channel(TaskId from, TaskId to) const;
  void set_buffer_size(TaskId from, TaskId to, int size);

  /// Tasks with no incoming / outgoing edges.
  std::vector<TaskId> sources() const;
  std::vector<TaskId> sinks() const;

  bool is_source(TaskId id) const { return predecessors(id).empty(); }
  bool is_sink(TaskId id) const { return successors(id).empty(); }

  /// A topological order of all tasks; throws PreconditionError if the
  /// graph has a cycle.
  std::vector<TaskId> topological_order() const;

  bool is_dag() const;

  /// True if `to` is reachable from `from` via directed edges (reflexive).
  bool reaches(TaskId from, TaskId to) const;

  /// Set the communication discipline of every non-source task.
  void set_comm_semantics(CommSemantics comm);

  /// Dispatching discipline of `ecu`; kNonPreemptive unless overridden.
  /// Any EcuId (even one no task currently uses) may be queried; kNoEcu
  /// reports kNonPreemptive (sources never contend).
  SchedPolicy policy(EcuId ecu) const;

  /// Override the dispatching discipline of `ecu`.  Setting the default
  /// (kNonPreemptive) erases the override, so graphs that never leave the
  /// paper's platform model serialize byte-identically to before the
  /// policy axis existed.  Throws PreconditionError on kNoEcu.
  void set_policy(EcuId ecu, SchedPolicy policy);

  /// Non-default per-ECU policy overrides, sorted by EcuId (the canonical
  /// serialization order).
  const std::vector<std::pair<EcuId, SchedPolicy>>& policies() const {
    return policies_;
  }

  /// Full structural + parameter validation (paper §II-A):
  ///  - graph is a DAG,
  ///  - every task's parameters are sane (validate_task),
  ///  - source tasks have WCET = BCET = 0 and ecu == kNoEcu,
  ///  - non-source tasks are mapped to an ECU,
  ///  - priorities are unique among tasks sharing an ECU,
  ///  - channel buffer sizes are >= 1.
  /// Throws PreconditionError describing the first violation.
  void validate() const;

 private:
  std::size_t edge_index(TaskId from, TaskId to) const;  // npos if absent

  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  /// Sorted non-default per-ECU policy overrides; absent means
  /// kNonPreemptive.
  std::vector<std::pair<EcuId, SchedPolicy>> policies_;
  std::vector<std::vector<TaskId>> succ_;
  /// edges_ index of each succ_ entry (same position), so an edge lookup
  /// scans the producer's successors instead of every edge.
  std::vector<std::vector<std::size_t>> succ_edge_;
  std::vector<std::vector<TaskId>> pred_;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

}  // namespace ceta
