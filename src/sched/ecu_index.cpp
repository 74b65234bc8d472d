#include "sched/ecu_index.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"

namespace ceta {

EcuIndex::EcuIndex(const TaskGraph& g) {
  const std::size_t n = g.num_tasks();
  // First pass: members per ECU, then the ECUs in ascending order.  The
  // map is reused below as ECU → group.
  std::unordered_map<EcuId, std::size_t> slot;
  std::size_t ecu_less = 0;
  for (TaskId id = 0; id < n; ++id) {
    const EcuId e = g.task(id).ecu;
    if (e == kNoEcu) {
      ++ecu_less;
    } else {
      ++slot[e];
    }
  }
  ecus_.reserve(slot.size());
  for (const auto& [e, count] : slot) ecus_.push_back(e);
  std::sort(ecus_.begin(), ecus_.end());

  begin_.assign(ecus_.size() + ecu_less + 1, 0);
  for (std::size_t k = 0; k < ecus_.size(); ++k) {
    std::size_t& s = slot[ecus_[k]];
    begin_[k + 1] = begin_[k] + s;
    s = k;
  }
  for (std::size_t k = ecus_.size(); k + 1 < begin_.size(); ++k) {
    begin_[k + 1] = begin_[k] + 1;
  }

  // Second pass in ascending id order keeps every group id-sorted.
  members_.resize(n);
  cohort_of_.resize(n);
  std::vector<std::size_t> cursor(begin_.begin(), begin_.end() - 1);
  std::size_t next_singleton = ecus_.size();
  for (TaskId id = 0; id < n; ++id) {
    const EcuId e = g.task(id).ecu;
    const std::size_t k = e == kNoEcu ? next_singleton++ : slot[e];
    cohort_of_[id] = k;
    members_[cursor[k]++] = id;
  }
}

std::span<const TaskId> EcuIndex::members(EcuId ecu) const {
  const auto it = std::lower_bound(ecus_.begin(), ecus_.end(), ecu);
  if (it == ecus_.end() || *it != ecu) return {};
  return group(static_cast<std::size_t>(it - ecus_.begin()));
}

std::span<const TaskId> EcuIndex::cohort(TaskId t) const {
  CETA_EXPECTS(t < cohort_of_.size(), "EcuIndex: unknown task id");
  return group(cohort_of_[t]);
}

}  // namespace ceta
