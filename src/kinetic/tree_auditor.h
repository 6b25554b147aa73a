// Invariant auditor for kinetic trees and their grid registrations.
//
// The matchers lean on a set of structural invariants that are cheap to
// state but scattered across the codebase: every branch of a tree is a
// valid Definition-2 schedule with exact legs, the active branch is the
// shortest, an empty tree is exactly one empty schedule, and the registry's
// per-cell aggregates match a fresh rebuild from the registered edges. A
// bug — or an injected fault (src/check) poisoning a leg through the
// distance oracle — violates them silently and surfaces much later as a
// wrong skyline. The auditor checks all of them directly against a trusted
// distance function, and RepairTree() rebuilds a corrupted tree in place.
//
// Cost: one exact distance per schedule leg, so auditing a fleet is about
// as expensive as one BA request. The engine runs it after every commit in
// debug builds (EngineOptions::audit_after_commit) and on demand in release
// (Engine::AuditFleet).

#ifndef PTAR_KINETIC_TREE_AUDITOR_H_
#define PTAR_KINETIC_TREE_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "grid/vehicle_registry.h"
#include "kinetic/kinetic_tree.h"

namespace ptar {

/// Outcome of one audit pass. `findings` holds one human-readable line per
/// violated invariant (empty means everything held).
struct AuditReport {
  std::uint64_t trees_checked = 0;
  std::uint64_t branches_checked = 0;
  std::uint64_t aggregate_cells_checked = 0;
  std::vector<std::string> findings;

  bool ok() const { return findings.empty(); }

  void Accumulate(const AuditReport& other) {
    trees_checked += other.trees_checked;
    branches_checked += other.branches_checked;
    aggregate_cells_checked += other.aggregate_cells_checked;
    findings.insert(findings.end(), other.findings.begin(),
                    other.findings.end());
  }
};

class KineticTreeAuditor {
 public:
  /// `dist` must be a trusted exact distance source (the engine uses its
  /// maintenance oracle, which fault injection never touches).
  /// `tolerance` bounds acceptable floating-point drift on stored legs.
  explicit KineticTreeAuditor(KineticTree::DistFn dist,
                              double tolerance = 1e-6)
      : dist_(std::move(dist)), tolerance_(tolerance) {}

  /// Audits one tree: leg-count and leg-exactness per branch, Definition-2
  /// validity of every branch, active-branch minimality, and the canonical
  /// empty-tree shape (one empty schedule, nobody on board).
  AuditReport AuditTree(const KineticTree& tree) const;

  /// Audits every tree of the fleet plus (when `registry` is non-null) the
  /// registry's per-cell aggregate consistency, repairing cells whose
  /// stored aggregates diverge.
  AuditReport AuditFleet(const std::vector<KineticTree>& fleet,
                         VehicleRegistry* registry) const;

  /// Rebuilds a corrupted tree in place through the trusted distance
  /// function (exact legs, invalid branches dropped, active recomputed).
  /// Fails iff no valid branch survives — the tree is then unusable and the
  /// caller must shed its assignments.
  Status RepairTree(KineticTree& tree) const;

 private:
  KineticTree::DistFn dist_;
  double tolerance_;
};

}  // namespace ptar

#endif  // PTAR_KINETIC_TREE_AUDITOR_H_
