// The per-ECU partition of a task graph: the one ECU grouping the
// scheduling analyses, the priority assignments and the incremental
// engine share.
//
// Every analysis of §II-B is per resource: a task's WCRT depends only on
// the tasks mapped to its own ECU.  EcuIndex lists, per ECU, its member
// ids in ascending id order, with the cohorts in ascending EcuId order.
// Id order is load-bearing: the RTA sums cohort utilization and collects
// competitors in exactly this order, so every double and every
// competitor list equals that of a plain scan over all task ids.
//
// Tasks without an ECU (sources) each form a singleton cohort of their
// own, after the ECU cohorts; they are not resources and are absent from
// ecus().
//
// The index reads only the ECU placement, so it stays valid across edits
// of periods, WCETs, priorities, policies and edges — the engine's
// mutation API never re-maps a task.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/task_graph.hpp"

namespace ceta {

class EcuIndex {
 public:
  /// Empty index (no tasks).
  EcuIndex() = default;

  /// Partition the tasks of `g` by ECU.  O(V + k log k) for k distinct
  /// ECUs.
  explicit EcuIndex(const TaskGraph& g);

  /// Number of tasks of the indexed graph.
  std::size_t num_tasks() const { return cohort_of_.size(); }

  /// The distinct ECUs in use, ascending (kNoEcu excluded).
  const std::vector<EcuId>& ecus() const { return ecus_; }

  /// Members of `ecu` in ascending id order; empty if no task is mapped
  /// there (or `ecu` is kNoEcu).  O(log k).
  std::span<const TaskId> members(EcuId ecu) const;

  /// All tasks sharing `t`'s ECU, `t` included, in ascending id order;
  /// just {t} when `t` has no ECU.  O(1).
  std::span<const TaskId> cohort(TaskId t) const;

 private:
  std::span<const TaskId> group(std::size_t k) const {
    return {members_.data() + begin_[k], begin_[k + 1] - begin_[k]};
  }

  /// Ascending ECU ids; ECU ecus_[k] owns group k.
  std::vector<EcuId> ecus_;
  /// Task ids grouped by cohort: the ECU cohorts in ecus_ order, then one
  /// singleton per ECU-less task; ascending ids within each group.
  std::vector<TaskId> members_;
  /// Group k occupies members_[begin_[k], begin_[k + 1]).
  std::vector<std::size_t> begin_;
  /// Group of each task.
  std::vector<std::size_t> cohort_of_;
};

}  // namespace ceta
