#include "graph/task_graph.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <string>

#include "common/error.hpp"

namespace ceta {

TaskId TaskGraph::add_task(Task t) {
  const auto id = static_cast<TaskId>(tasks_.size());
  if (t.name.empty()) t.name = "task" + std::to_string(id);
  tasks_.push_back(std::move(t));
  succ_.emplace_back();
  succ_edge_.emplace_back();
  pred_.emplace_back();
  return id;
}

void TaskGraph::add_edge(TaskId from, TaskId to, ChannelSpec spec) {
  CETA_EXPECTS(from < tasks_.size() && to < tasks_.size(),
               "add_edge: unknown task id");
  CETA_EXPECTS(from != to, "add_edge: self loops are not allowed");
  CETA_EXPECTS(!has_edge(from, to), "add_edge: duplicate edge");
  CETA_EXPECTS(spec.buffer_size >= 1, "add_edge: buffer size must be >= 1");
  succ_edge_[from].push_back(edges_.size());
  edges_.push_back(Edge{from, to, spec});
  succ_[from].push_back(to);
  pred_[to].push_back(from);
}

void TaskGraph::remove_edge(TaskId from, TaskId to) {
  const std::size_t i = edge_index(from, to);
  CETA_EXPECTS(i != npos, "remove_edge: no such edge");
  edges_.erase(edges_.begin() + static_cast<std::ptrdiff_t>(i));
  auto& succ = succ_[from];
  const auto k = std::find(succ.begin(), succ.end(), to) - succ.begin();
  succ.erase(succ.begin() + k);
  succ_edge_[from].erase(succ_edge_[from].begin() + k);
  // Every edge stored after the removed one moved down one slot.
  for (std::vector<std::size_t>& ids : succ_edge_) {
    for (std::size_t& id : ids) {
      if (id > i) --id;
    }
  }
  auto& pred = pred_[to];
  pred.erase(std::find(pred.begin(), pred.end(), from));
}

const Task& TaskGraph::task(TaskId id) const {
  CETA_EXPECTS(id < tasks_.size(), "task: unknown task id");
  return tasks_[id];
}

Task& TaskGraph::task(TaskId id) {
  CETA_EXPECTS(id < tasks_.size(), "task: unknown task id");
  return tasks_[id];
}

const std::vector<TaskId>& TaskGraph::successors(TaskId id) const {
  CETA_EXPECTS(id < tasks_.size(), "successors: unknown task id");
  return succ_[id];
}

const std::vector<TaskId>& TaskGraph::predecessors(TaskId id) const {
  CETA_EXPECTS(id < tasks_.size(), "predecessors: unknown task id");
  return pred_[id];
}

std::size_t TaskGraph::edge_index(TaskId from, TaskId to) const {
  if (from >= succ_.size()) return npos;
  const std::vector<TaskId>& succ = succ_[from];
  for (std::size_t k = 0; k < succ.size(); ++k) {
    if (succ[k] == to) return succ_edge_[from][k];
  }
  return npos;
}

bool TaskGraph::has_edge(TaskId from, TaskId to) const {
  return edge_index(from, to) != npos;
}

const ChannelSpec& TaskGraph::channel(TaskId from, TaskId to) const {
  const std::size_t i = edge_index(from, to);
  CETA_EXPECTS(i != npos, "channel: no such edge");
  return edges_[i].channel;
}

void TaskGraph::set_buffer_size(TaskId from, TaskId to, int size) {
  CETA_EXPECTS(size >= 1, "set_buffer_size: size must be >= 1");
  const std::size_t i = edge_index(from, to);
  CETA_EXPECTS(i != npos, "set_buffer_size: no such edge");
  edges_[i].channel.buffer_size = size;
}

std::vector<TaskId> TaskGraph::sources() const {
  std::vector<TaskId> out;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    if (pred_[id].empty()) out.push_back(id);
  }
  return out;
}

std::vector<TaskId> TaskGraph::sinks() const {
  std::vector<TaskId> out;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    if (succ_[id].empty()) out.push_back(id);
  }
  return out;
}

std::vector<TaskId> TaskGraph::topological_order() const {
  std::vector<std::size_t> indeg(tasks_.size(), 0);
  for (const Edge& e : edges_) ++indeg[e.to];
  std::queue<TaskId> ready;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    if (indeg[id] == 0) ready.push(id);
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId id = ready.front();
    ready.pop();
    order.push_back(id);
    for (TaskId s : succ_[id]) {
      if (--indeg[s] == 0) ready.push(s);
    }
  }
  CETA_EXPECTS(order.size() == tasks_.size(),
               "topological_order: graph contains a cycle");
  return order;
}

bool TaskGraph::is_dag() const {
  try {
    (void)topological_order();
    return true;
  } catch (const PreconditionError&) {
    return false;
  }
}

bool TaskGraph::reaches(TaskId from, TaskId to) const {
  CETA_EXPECTS(from < tasks_.size() && to < tasks_.size(),
               "reaches: unknown task id");
  if (from == to) return true;
  std::vector<bool> seen(tasks_.size(), false);
  std::vector<TaskId> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    const TaskId v = stack.back();
    stack.pop_back();
    for (TaskId s : succ_[v]) {
      if (s == to) return true;
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

SchedPolicy TaskGraph::policy(EcuId ecu) const {
  const auto it = std::lower_bound(
      policies_.begin(), policies_.end(), ecu,
      [](const std::pair<EcuId, SchedPolicy>& p, EcuId e) {
        return p.first < e;
      });
  if (it != policies_.end() && it->first == ecu) return it->second;
  return SchedPolicy::kNonPreemptive;
}

void TaskGraph::set_policy(EcuId ecu, SchedPolicy policy) {
  CETA_EXPECTS(ecu != kNoEcu, "set_policy: sources occupy no ECU");
  const auto it = std::lower_bound(
      policies_.begin(), policies_.end(), ecu,
      [](const std::pair<EcuId, SchedPolicy>& p, EcuId e) {
        return p.first < e;
      });
  const bool present = it != policies_.end() && it->first == ecu;
  if (policy == SchedPolicy::kNonPreemptive) {
    if (present) policies_.erase(it);
    return;
  }
  if (present) {
    it->second = policy;
  } else {
    policies_.insert(it, {ecu, policy});
  }
}

void TaskGraph::set_comm_semantics(CommSemantics comm) {
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    if (!pred_[id].empty()) tasks_[id].comm = comm;
  }
}

void TaskGraph::validate() const {
  CETA_EXPECTS(!tasks_.empty(), "validate: graph has no tasks");
  (void)topological_order();  // throws on a cycle
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const Task& t = tasks_[id];
    validate_task(t);
    if (pred_[id].empty()) {
      CETA_EXPECTS(t.wcet == Duration::zero() && t.bcet == Duration::zero(),
                   "validate: source task '" + t.name +
                       "' must have zero execution time");
      CETA_EXPECTS(t.ecu == kNoEcu, "validate: source task '" + t.name +
                                        "' must not be mapped to an ECU");
    } else {
      CETA_EXPECTS(t.ecu != kNoEcu, "validate: non-source task '" + t.name +
                                        "' must be mapped to an ECU");
    }
  }
  // Unique priorities per ECU (total order required by fixed priority).
  std::set<std::pair<EcuId, int>> seen;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const Task& t = tasks_[id];
    if (t.ecu == kNoEcu) continue;
    const bool inserted = seen.insert({t.ecu, t.priority}).second;
    CETA_EXPECTS(inserted, "validate: duplicate priority " +
                               std::to_string(t.priority) + " on ECU " +
                               std::to_string(t.ecu));
  }
  for (const Edge& e : edges_) {
    CETA_EXPECTS(e.channel.buffer_size >= 1,
                 "validate: channel buffer size must be >= 1");
  }
}

}  // namespace ceta
