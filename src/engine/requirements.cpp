#include "engine/requirements.hpp"

#include "common/error.hpp"
#include "engine/analysis_engine.hpp"

namespace ceta {

RequirementsReport verify_disparity_requirements(
    const TaskGraph& g, const std::vector<DisparityRequirement>& reqs,
    const ResponseTimeMap& rtm, const DisparityOptions& opt) {
  for (const DisparityRequirement& r : reqs) {
    CETA_EXPECTS(r.task < g.num_tasks(),
                 "verify_disparity_requirements: unknown task id");
    CETA_EXPECTS(r.max_disparity >= Duration::zero(),
                 "verify_disparity_requirements: negative threshold");
  }

  // One engine over the adopted map.
  AnalysisEngine engine(g, rtm);
  RequirementsReport report;

  // First pass: verify, and remediate violations cumulatively.
  for (const DisparityRequirement& r : reqs) {
    RequirementOutcome out;
    out.requirement = r;
    out.bound = engine.disparity(r.task, opt).worst_case;
    out.final_bound = out.bound;
    if (out.bound <= r.max_disparity) {
      out.status = RequirementStatus::kSatisfied;
      report.outcomes.push_back(std::move(out));
      continue;
    }
    const MultiBufferDesign design = engine.optimize_buffers(r.task, opt);
    if (!design.channels.empty() &&
        design.optimized_bound <= r.max_disparity) {
      AnalysisEngine::Transaction txn(engine);
      for (const ChannelBuffer& cb : design.channels) {
        txn.set_buffer(cb.from, cb.to, cb.buffer_size);
      }
      txn.commit();
      out.status = RequirementStatus::kFixedByBuffers;
      out.final_bound = design.optimized_bound;
      out.buffers = design.channels;
    } else {
      out.status = RequirementStatus::kViolated;
      // Keep the graph unchanged: a partial remedy that misses the
      // threshold only delays downstream consumers for no benefit.
    }
    report.outcomes.push_back(std::move(out));
  }

  // Second pass: remedies may have shifted data seen by other analyzed
  // tasks; re-verify every outcome against the final graph.
  report.all_satisfied = true;
  for (RequirementOutcome& out : report.outcomes) {
    out.final_bound = engine.disparity(out.requirement.task, opt).worst_case;
    const bool ok = out.final_bound <= out.requirement.max_disparity;
    if (!ok) {
      out.status = RequirementStatus::kViolated;  // possibly regressed
      report.all_satisfied = false;
    } else if (out.status == RequirementStatus::kViolated) {
      // Another requirement's remedy closed this gap as a side effect.
      out.status = RequirementStatus::kFixedByBuffers;
    }
  }
  report.final_graph = engine.graph();
  return report;
}

}  // namespace ceta
