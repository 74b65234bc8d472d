#include "engine/invalidation.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ceta::engine {

namespace {

/// Union of descendant closures of `seeds` (each seed included), via one
/// multi-source forward walk.  O(V + E) worst case, proportional to the
/// reachable region otherwise.
void add_descendants(const TaskGraph& g, const std::vector<TaskId>& seeds,
                     std::vector<bool>& seen, std::vector<TaskId>& out) {
  std::vector<TaskId> stack;
  for (const TaskId s : seeds) {
    if (!seen[s]) {
      seen[s] = true;
      out.push_back(s);
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const TaskId v = stack.back();
    stack.pop_back();
    for (const TaskId s : g.successors(v)) {
      if (!seen[s]) {
        seen[s] = true;
        out.push_back(s);
        stack.push_back(s);
      }
    }
  }
}

void sort_unique(std::vector<TaskId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

InvalidationPlan plan_invalidation(
    const TaskGraph& post, const EcuIndex& ecus,
    const std::vector<Mutation>& edits,
    const std::vector<std::vector<TaskId>>& removed_closures) {
  InvalidationPlan plan;

  // Seeds for the downstream (report) walk and — for period/structural
  // edits — the chain-set walk.  Collected first so each walk runs once.
  std::vector<TaskId> report_seeds;
  std::vector<TaskId> chain_set_seeds;
  // Tasks whose chain sets / reports are dirty but that may be unreachable
  // in `post` (heads of removed edges): their closures were computed on the
  // pre-commit graph by the caller.
  std::vector<TaskId> pre_closure_tasks;

  std::size_t removed_i = 0;
  for (const Mutation& m : edits) {
    switch (m.kind) {
      case MutationKind::kPeriod:
        // Period enters the RTA of the whole cohort (interference terms),
        // the chain bounds through every cohort member (θ = T + R
        // refinements) and — per the §9 contract — the chain enumerations
        // through the task (periods bound enumeration capacity downstream).
        for (const TaskId c : ecus.cohort(m.task)) {
          plan.rta_tasks.push_back(c);
          report_seeds.push_back(c);
        }
        chain_set_seeds.push_back(m.task);
        break;
      case MutationKind::kWcetRange:
      case MutationKind::kPriority:
        // WCET/priority edits shift the cohort's blocking/interference
        // terms; chain *structure* is untouched, so enumerations survive.
        for (const TaskId c : ecus.cohort(m.task)) {
          plan.rta_tasks.push_back(c);
          report_seeds.push_back(c);
        }
        break;
      case MutationKind::kBuffer:
        // Lemma 6: only the FIFO shift of chains traversing (from, to)
        // moves.  RTA and chain sets survive.
        report_seeds.push_back(m.to);
        break;
      case MutationKind::kOffset:
        // Offsets enter no cached artifact (only the exact LET oracle and
        // the simulator, both uncached) — everything survives.
        break;
      case MutationKind::kAddEdge:
        // New data-flow paths appear downstream of the head; existing
        // chains and the RTA are still valid.
        chain_set_seeds.push_back(m.to);
        report_seeds.push_back(m.to);
        break;
      case MutationKind::kPolicy:
        // A dispatching-discipline flip re-derives the whole ECU's RTA
        // and the chain bounds through its members (the Lemma 4 same-ECU
        // refinements are routed by the policy) — exactly a priority
        // edit's footprint.  Chain structure is untouched.
        for (const TaskId c : ecus.members(m.ecu)) {
          plan.rta_tasks.push_back(c);
          report_seeds.push_back(c);
        }
        break;
      case MutationKind::kRemoveEdge: {
        // Chains through the dead edge vanish; anything keyed by a task
        // downstream of the old head is stale.  Reachability was destroyed
        // by the edit, so use the pre-commit closure supplied by the
        // caller.
        CETA_EXPECTS(removed_i < removed_closures.size(),
                     "plan_invalidation: missing pre-commit closure");
        const std::vector<TaskId>& closure = removed_closures[removed_i++];
        pre_closure_tasks.insert(pre_closure_tasks.end(), closure.begin(),
                                 closure.end());
        break;
      }
    }
  }

  std::vector<bool> seen_reports(post.num_tasks(), false);
  for (const TaskId t : pre_closure_tasks) {
    if (!seen_reports[t]) {
      seen_reports[t] = true;
      plan.report_tasks.push_back(t);
    }
  }
  add_descendants(post, report_seeds, seen_reports, plan.report_tasks);

  std::vector<bool> seen_chain_sets(post.num_tasks(), false);
  for (const TaskId t : pre_closure_tasks) {
    if (!seen_chain_sets[t]) {
      seen_chain_sets[t] = true;
      plan.chain_set_tasks.push_back(t);
    }
  }
  add_descendants(post, chain_set_seeds, seen_chain_sets,
                  plan.chain_set_tasks);

  sort_unique(plan.rta_tasks);
  sort_unique(plan.chain_set_tasks);
  sort_unique(plan.report_tasks);
  return plan;
}

}  // namespace ceta::engine
