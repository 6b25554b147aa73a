// Kinetic-tree auditor suite: the invariants the matchers rely on are
// checked against a trusted oracle, injected corruption is detected and
// repaired in place, and the engine's post-commit audit hook repairs
// poisoned trees before they can mis-serve a later request. Part of the
// `robustness` label (and the sanitize config via the compound label).

#include "kinetic/tree_auditor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fault_injection.h"
#include "graph/distance_oracle.h"
#include "rideshare/baseline_matcher.h"
#include "scenario_builder.h"
#include "sim/engine.h"

namespace ptar {
namespace {

using testing::GridWorld;
using testing::MakeGridWorld;
using testing::MakeRequestStream;

/// Engine with a few commits applied, so the fleet holds non-empty trees
/// with real schedules to audit.
struct BusyWorld {
  GridWorld world;
  std::unique_ptr<Engine> engine;
  BaselineMatcher ba;

  explicit BusyWorld(bool audit_after_commit = false) {
    world = MakeGridWorld();
    EngineOptions eopts;
    eopts.num_vehicles = 20;
    eopts.seed = 5;
    eopts.audit_after_commit = audit_after_commit;
    engine =
        std::make_unique<Engine>(world.graph.get(), world.grid.get(), eopts);
    const std::vector<Request> requests =
        MakeRequestStream(*world.graph, {.num_requests = 15, .seed = 11});
    std::vector<Matcher*> matchers = {&ba};
    for (const Request& request : requests) {
      engine->ProcessRequest(request, matchers);
    }
  }

  KineticTree::DistFn TrustedDist() {
    auto oracle = std::make_shared<DistanceOracle>(world.graph.get());
    return [oracle](VertexId a, VertexId b) { return oracle->Dist(a, b); };
  }
};

TEST(TreeAuditorTest, HealthyFleetAuditsClean) {
  BusyWorld busy;
  const AuditReport report = busy.engine->AuditFleet();
  EXPECT_TRUE(report.ok()) << report.findings.front();
  EXPECT_EQ(report.trees_checked, busy.engine->fleet().size());
  EXPECT_GT(report.branches_checked, 0u);
  EXPECT_GT(report.aggregate_cells_checked, 0u);
}

TEST(TreeAuditorTest, DetectsAndRepairsCorruptedLeg) {
  BusyWorld busy;
  std::vector<KineticTree>& fleet = busy.engine->fleet();
  const VehicleId corrupted = check::CorruptRandomLeg(fleet, /*seed=*/3);
  ASSERT_NE(corrupted, kInvalidVehicle)
      << "no non-empty tree to corrupt: scenario too small";

  const KineticTreeAuditor auditor(busy.TrustedDist());
  const AuditReport before = auditor.AuditTree(fleet[corrupted]);
  ASSERT_FALSE(before.ok());
  // The finding names the vehicle, so a post-commit log line is actionable.
  EXPECT_NE(before.findings.front().find(std::to_string(corrupted)),
            std::string::npos)
      << before.findings.front();

  ASSERT_TRUE(auditor.RepairTree(fleet[corrupted]).ok());
  const AuditReport after = auditor.AuditTree(fleet[corrupted]);
  EXPECT_TRUE(after.ok()) << after.findings.front();
}

TEST(TreeAuditorTest, FleetAuditCoversRegistryAggregates) {
  BusyWorld busy;
  const KineticTreeAuditor auditor(busy.TrustedDist());
  // Commits leave their cells' aggregates dirty (the engine rebuilds them
  // before the next match round); the aggregate audit only covers clean
  // cells, so rebuild first — exactly what Engine::AuditFleet does.
  busy.engine->registry().RebuildDirtyAggregates();
  const AuditReport report =
      auditor.AuditFleet(busy.engine->fleet(), &busy.engine->registry());
  EXPECT_TRUE(report.ok()) << report.findings.front();
  EXPECT_GT(report.aggregate_cells_checked, 0u);

  // Registry self-audit agrees (and is idempotent).
  std::vector<std::string> findings;
  busy.engine->registry().AuditAggregates(&findings);
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(TreeAuditorTest, EngineFleetAuditCountsFindings) {
  BusyWorld busy;
  const VehicleId corrupted =
      check::CorruptRandomLeg(busy.engine->fleet(), /*seed=*/3);
  ASSERT_NE(corrupted, kInvalidVehicle);
  const AuditReport report = busy.engine->AuditFleet();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(busy.engine->metrics().Counter("audit/findings"), 1u);
  EXPECT_GE(busy.engine->metrics().Counter("audit/trees_checked"),
            busy.engine->fleet().size());
}

TEST(TreeAuditorTest, PostCommitAuditingKeepsFleetClean) {
  BusyWorld busy(/*audit_after_commit=*/true);
  // The initial commits already ran the post-commit hook.
  const std::uint64_t audited_trees =
      busy.engine->metrics().Counter("audit/trees_checked");
  EXPECT_GT(audited_trees, 0u);

  const VehicleId corrupted =
      check::CorruptRandomLeg(busy.engine->fleet(), /*seed=*/3);
  ASSERT_NE(corrupted, kInvalidVehicle);
  EXPECT_FALSE(busy.engine->AuditFleet().ok()) << "corruption not detected";

  // Keep the simulation running. Corruption cannot survive normal
  // operation: a commit on the vehicle re-enumerates its schedules, a
  // movement refresh recomputes its legs, and a post-commit audit repairs
  // whatever those two miss.
  const std::vector<Request> more =
      MakeRequestStream(*busy.world.graph, {.num_requests = 30, .seed = 23});
  std::vector<Matcher*> matchers = {&busy.ba};
  for (const Request& request : more) {
    busy.engine->ProcessRequest(request, matchers);
  }
  EXPECT_GT(busy.engine->metrics().Counter("audit/trees_checked"),
            audited_trees)
      << "post-commit audit hook never ran";
  const AuditReport report = busy.engine->AuditFleet();
  EXPECT_TRUE(report.ok()) << report.findings.front();
}

TEST(TreeAuditorTest, RepairPreservesActiveBranchMinimality) {
  BusyWorld busy;
  std::vector<KineticTree>& fleet = busy.engine->fleet();
  const VehicleId corrupted = check::CorruptRandomLeg(fleet, /*seed=*/7);
  ASSERT_NE(corrupted, kInvalidVehicle);
  const KineticTreeAuditor auditor(busy.TrustedDist());
  ASSERT_TRUE(auditor.RepairTree(fleet[corrupted]).ok());
  // The repaired tree's active branch is the shortest valid schedule —
  // re-auditing checks exactly that invariant.
  EXPECT_TRUE(auditor.AuditTree(fleet[corrupted]).ok());
}

}  // namespace
}  // namespace ptar
