#include "kinetic/tree_auditor.h"

#include <cmath>
#include <string>

namespace ptar {

namespace {

std::string Prefix(const KineticTree& tree, std::size_t branch) {
  return "vehicle " + std::to_string(tree.vehicle()) + " branch " +
         std::to_string(branch) + ": ";
}

}  // namespace

AuditReport KineticTreeAuditor::AuditTree(const KineticTree& tree) const {
  AuditReport report;
  ++report.trees_checked;

  if (tree.IsEmpty()) {
    if (tree.num_branches() != 1 || !tree.BranchSchedule(0).stops.empty()) {
      report.findings.push_back(
          "vehicle " + std::to_string(tree.vehicle()) +
          ": empty tree must hold exactly one empty schedule");
    }
    if (tree.onboard() != 0) {
      report.findings.push_back("vehicle " + std::to_string(tree.vehicle()) +
                                ": empty tree with riders on board");
    }
    return report;
  }

  // Riders on board must equal the picked-up assigned groups.
  int expected_onboard = 0;
  for (const AssignedRequest& a : tree.assigned()) {
    if (a.picked_up) expected_onboard += a.request.riders;
  }
  if (expected_onboard != tree.onboard()) {
    report.findings.push_back(
        "vehicle " + std::to_string(tree.vehicle()) + ": onboard=" +
        std::to_string(tree.onboard()) + " but picked-up assignments sum to " +
        std::to_string(expected_onboard));
  }

  if (tree.active_index() >= tree.num_branches()) {
    report.findings.push_back("vehicle " + std::to_string(tree.vehicle()) +
                              ": active_index out of range");
    return report;  // nothing below is meaningful
  }

  // While stale(), non-active first legs are legitimately outdated (Refresh
  // repairs them lazily) and a drifted branch may legally fail validation;
  // only the active branch carries hard guarantees then.
  const bool stale = tree.stale();
  Distance min_total = kInfDistance;
  const std::vector<Schedule> schedules = tree.Schedules();
  for (std::size_t b = 0; b < schedules.size(); ++b) {
    const Schedule& branch = schedules[b];
    ++report.branches_checked;
    const bool is_active = b == tree.active_index();

    if (branch.legs.size() != branch.stops.size()) {
      report.findings.push_back(
          Prefix(tree, b) + std::to_string(branch.legs.size()) + " legs for " +
          std::to_string(branch.stops.size()) + " stops");
      continue;
    }
    min_total = std::min(min_total, branch.total());

    VertexId prev = tree.location();
    for (std::size_t i = 0; i < branch.stops.size(); ++i) {
      const bool may_be_stale = stale && !is_active && i == 0;
      if (!may_be_stale) {
        const Distance exact = dist_(prev, branch.stops[i].location);
        if (std::abs(branch.legs[i] - exact) > tolerance_) {
          report.findings.push_back(
              Prefix(tree, b) + "leg " + std::to_string(i) + " stores " +
              std::to_string(branch.legs[i]) + " but dist(" +
              std::to_string(prev) + ", " +
              std::to_string(branch.stops[i].location) + ") = " +
              std::to_string(exact));
        }
      }
      prev = branch.stops[i].location;
    }

    if ((is_active || !stale) && !tree.IsValidSchedule(branch, nullptr)) {
      report.findings.push_back(Prefix(tree, b) +
                                "fails the Definition-2 validity check");
    }
  }

  // The active branch must be (one of) the shortest.
  const Distance active_total = schedules[tree.active_index()].total();
  if (active_total > min_total + tolerance_) {
    report.findings.push_back(
        "vehicle " + std::to_string(tree.vehicle()) + ": active total " +
        std::to_string(active_total) + " exceeds shortest branch total " +
        std::to_string(min_total));
  }

  return report;
}

AuditReport KineticTreeAuditor::AuditFleet(
    const std::vector<KineticTree>& fleet,
    VehicleRegistry* registry) const {
  AuditReport report;
  for (const KineticTree& tree : fleet) {
    report.Accumulate(AuditTree(tree));
  }
  if (registry != nullptr) {
    report.aggregate_cells_checked +=
        registry->AuditAggregates(&report.findings);
  }
  return report;
}

Status KineticTreeAuditor::RepairTree(KineticTree& tree) const {
  return tree.RebuildBranches(dist_);
}

}  // namespace ptar
