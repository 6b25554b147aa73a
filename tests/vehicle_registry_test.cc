// Tests for the per-cell vehicle registry, its aggregates and its write
// count.

#include "grid/vehicle_registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"

namespace ptar {
namespace {

class VehicleRegistryTest : public ::testing::Test {
 protected:
  VehicleRegistryTest() : graph_(testing::MakeSmallGrid(100.0)) {
    auto index = GridIndex::Build(&graph_, {.cell_size_meters = 100.0});
    PTAR_CHECK(index.ok());
    grid_ = std::make_unique<GridIndex>(std::move(index).value());
    registry_ = std::make_unique<VehicleRegistry>(grid_.get());
  }

  KineticEdgeEntry Entry(VehicleId v, int capacity, Distance detour,
                         Distance dist_tr, Distance leg, VertexId ox,
                         VertexId oy) {
    KineticEdgeEntry e;
    e.vehicle = v;
    e.capacity = capacity;
    e.detour = detour;
    e.dist_tr = dist_tr;
    e.leg_dist = leg;
    e.ox = ox;
    e.oy = oy;
    return e;
  }

  RoadNetwork graph_;
  std::unique_ptr<GridIndex> grid_;
  std::unique_ptr<VehicleRegistry> registry_;
};

TEST_F(VehicleRegistryTest, EmptyVehicleLifecycle) {
  const CellId c0 = grid_->CellOfVertex(0);
  const CellId c8 = grid_->CellOfVertex(8);
  ASSERT_NE(c0, c8);

  registry_->AddEmptyVehicle(1, 0);
  registry_->AddEmptyVehicle(2, 0);
  EXPECT_EQ(registry_->EmptyVehicles(c0).size(), 2u);
  EXPECT_TRUE(registry_->EmptyVehicles(c8).empty());

  registry_->MoveEmptyVehicle(1, 8);
  EXPECT_EQ(registry_->EmptyVehicles(c0).size(), 1u);
  EXPECT_EQ(registry_->EmptyVehicles(c8).size(), 1u);
  EXPECT_EQ(registry_->EmptyVehicles(c8)[0], 1u);

  registry_->RemoveEmptyVehicle(2);
  EXPECT_TRUE(registry_->EmptyVehicles(c0).empty());
}

TEST_F(VehicleRegistryTest, MoveWithinSameCellIsNoop) {
  registry_->AddEmptyVehicle(5, 0);
  const CellId c0 = grid_->CellOfVertex(0);
  registry_->MoveEmptyVehicle(5, 0);
  EXPECT_EQ(registry_->EmptyVehicles(c0).size(), 1u);
}

TEST_F(VehicleRegistryTest, DoubleAddDies) {
  registry_->AddEmptyVehicle(1, 0);
  EXPECT_DEATH(registry_->AddEmptyVehicle(1, 4), "already registered");
}

TEST_F(VehicleRegistryTest, RemoveUnknownDies) {
  EXPECT_DEATH(registry_->RemoveEmptyVehicle(9), "not registered");
}

TEST_F(VehicleRegistryTest, EdgeRegistrationAndAggregates) {
  const CellId c0 = grid_->CellOfVertex(0);
  std::vector<std::pair<CellId, KineticEdgeEntry>> entries;
  // ox = 0 lies in c0; oy is outside, so the aggregates apply the
  // triangle-inequality corrections from the CellAggregates contract.
  entries.emplace_back(c0, Entry(3, 2, 100.0, 50.0, 80.0, 0, 1));
  entries.emplace_back(c0, Entry(3, 4, 60.0, 20.0, 120.0, 0, 2));
  registry_->SetVehicleEdges(3, entries);
  registry_->RebuildDirtyAggregates();

  EXPECT_EQ(registry_->NonEmptyEntries(c0).size(), 2u);
  const CellAggregates& agg = registry_->Aggregates(c0);
  EXPECT_TRUE(agg.any);
  EXPECT_EQ(agg.max_capacity, 4);
  EXPECT_DOUBLE_EQ(agg.max_detour, 100.0);
  EXPECT_DOUBLE_EQ(agg.min_dist_tr, 20.0);       // ox in cell: unadjusted
  EXPECT_DOUBLE_EQ(agg.max_leg_dist, 2 * 120.0);  // one endpoint outside
}

TEST_F(VehicleRegistryTest, SetReplacesOldRegistrations) {
  const CellId c0 = grid_->CellOfVertex(0);
  const CellId c8 = grid_->CellOfVertex(8);
  std::vector<std::pair<CellId, KineticEdgeEntry>> first;
  first.emplace_back(c0, Entry(7, 2, 10.0, 5.0, 8.0, 0, 1));
  registry_->SetVehicleEdges(7, first);

  std::vector<std::pair<CellId, KineticEdgeEntry>> second;
  second.emplace_back(c8, Entry(7, 3, 20.0, 6.0, 9.0, 8, 7));
  registry_->SetVehicleEdges(7, second);
  registry_->RebuildDirtyAggregates();

  EXPECT_TRUE(registry_->NonEmptyEntries(c0).empty());
  EXPECT_EQ(registry_->NonEmptyEntries(c8).size(), 1u);
  EXPECT_FALSE(registry_->Aggregates(c0).any);
}

TEST_F(VehicleRegistryTest, ClearRemovesEverywhere) {
  const CellId c0 = grid_->CellOfVertex(0);
  const CellId c8 = grid_->CellOfVertex(8);
  std::vector<std::pair<CellId, KineticEdgeEntry>> entries;
  entries.emplace_back(c0, Entry(2, 2, 10.0, 5.0, 8.0, 0, 8));
  entries.emplace_back(c8, Entry(2, 2, 10.0, 5.0, 8.0, 0, 8));
  registry_->SetVehicleEdges(2, entries);
  registry_->ClearVehicleEdges(2);
  EXPECT_TRUE(registry_->NonEmptyEntries(c0).empty());
  EXPECT_TRUE(registry_->NonEmptyEntries(c8).empty());
}

TEST_F(VehicleRegistryTest, AggregatesMixMultipleVehicles) {
  const CellId c0 = grid_->CellOfVertex(0);
  std::vector<std::pair<CellId, KineticEdgeEntry>> a;
  a.emplace_back(c0, Entry(1, 1, 30.0, 40.0, 10.0, 0, 1));
  registry_->SetVehicleEdges(1, a);
  std::vector<std::pair<CellId, KineticEdgeEntry>> b;
  b.emplace_back(c0, Entry(2, 5, 10.0, 90.0, 70.0, 1, 0));
  registry_->SetVehicleEdges(2, b);
  registry_->RebuildDirtyAggregates();

  const CellAggregates& agg = registry_->Aggregates(c0);
  EXPECT_EQ(agg.max_capacity, 5);
  EXPECT_DOUBLE_EQ(agg.max_detour, 30.0);
  // Vehicle 2's edge enters c0 through oy: its dist_tr is corrected by the
  // leg length (90 - 70 = 20).
  EXPECT_DOUBLE_EQ(agg.min_dist_tr, 20.0);
  EXPECT_DOUBLE_EQ(agg.max_leg_dist, 2 * 70.0);

  registry_->ClearVehicleEdges(2);
  registry_->RebuildDirtyAggregates();
  const CellAggregates& after = registry_->Aggregates(c0);
  EXPECT_EQ(after.max_capacity, 1);
  EXPECT_DOUBLE_EQ(after.min_dist_tr, 40.0);
}

TEST_F(VehicleRegistryTest, AdjustDistTrLowersAndClamps) {
  const CellId c0 = grid_->CellOfVertex(0);
  std::vector<std::pair<CellId, KineticEdgeEntry>> entries;
  entries.emplace_back(c0, Entry(4, 2, 10.0, 50.0, 8.0, 0, 1));
  entries.emplace_back(c0, Entry(4, 2, 10.0, 5.0, 8.0, 1, 2));
  registry_->SetVehicleEdges(4, entries);

  registry_->AdjustVehicleDistTr(4, 20.0);
  registry_->RebuildDirtyAggregates();
  const auto after = registry_->NonEmptyEntries(c0);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_DOUBLE_EQ(after[0].dist_tr, 30.0);
  EXPECT_DOUBLE_EQ(after[1].dist_tr, 0.0);  // clamped
  // Entry 1 has ox = 1 outside c0, so the aggregate corrects its clamped
  // dist_tr by the leg length: 0 - 8 = -8.
  EXPECT_DOUBLE_EQ(registry_->Aggregates(c0).min_dist_tr, -8.0);
}

TEST_F(VehicleRegistryTest, AdjustUnknownVehicleIsNoop) {
  registry_->AdjustVehicleDistTr(42, 10.0);  // must not crash
}

TEST_F(VehicleRegistryTest, EmptyCellAggregates) {
  const CellAggregates& agg = registry_->Aggregates(grid_->CellOfVertex(4));
  EXPECT_FALSE(agg.any);
  EXPECT_EQ(agg.min_dist_tr, kInfDistance);
}

// --- Pure reads and the write count (read in place by matchers). ---

TEST_F(VehicleRegistryTest, AggregateReadsNeedTheRebuild) {
  const CellId c0 = grid_->CellOfVertex(0);
  std::vector<std::pair<CellId, KineticEdgeEntry>> entries;
  entries.emplace_back(c0, Entry(3, 4, 60.0, 20.0, 120.0, 0, 2));
  registry_->SetVehicleEdges(3, entries);  // c0 is now dirty.
  EXPECT_DEATH(registry_->Aggregates(c0), "read before the rebuild");

  registry_->RebuildDirtyAggregates();
  const CellAggregates before = registry_->Aggregates(c0);
  EXPECT_TRUE(before.any);
  EXPECT_EQ(before.max_capacity, 4);
  // Reads are pure: a second read and a second rebuild change nothing.
  registry_->RebuildDirtyAggregates();
  EXPECT_EQ(registry_->Aggregates(c0), before);

  registry_->ClearVehicleEdges(3);
  EXPECT_DEATH(registry_->Aggregates(c0), "read before the rebuild");
  registry_->RebuildDirtyAggregates();
  EXPECT_FALSE(registry_->Aggregates(c0).any);
}

TEST_F(VehicleRegistryTest, EpochCountsCellWrites) {
  const CellId c0 = grid_->CellOfVertex(0);
  EXPECT_EQ(registry_->epoch(), 0u);
  registry_->AddEmptyVehicle(1, 0);
  EXPECT_EQ(registry_->epoch(), 1u);
  registry_->MoveEmptyVehicle(1, 0);  // same cell: no write
  EXPECT_EQ(registry_->epoch(), 1u);
  registry_->MoveEmptyVehicle(1, 8);  // leaves one cell, enters another
  EXPECT_EQ(registry_->epoch(), 3u);

  std::vector<std::pair<CellId, KineticEdgeEntry>> entries;
  entries.emplace_back(c0, Entry(3, 2, 100.0, 50.0, 80.0, 0, 1));
  entries.emplace_back(c0, Entry(3, 4, 60.0, 20.0, 120.0, 0, 2));
  registry_->SetVehicleEdges(3, entries);  // one write per entry
  EXPECT_EQ(registry_->epoch(), 5u);
  registry_->AdjustVehicleDistTr(3, 5.0);  // one write per cell
  EXPECT_EQ(registry_->epoch(), 6u);

  // Reads, the rebuild and the audit write no cell contents.
  registry_->RebuildDirtyAggregates();
  registry_->Aggregates(c0);
  registry_->EmptyVehicles(c0);
  registry_->NonEmptyEntries(c0);
  EXPECT_EQ(registry_->AuditAggregates(nullptr), 2u);
  EXPECT_EQ(registry_->epoch(), 6u);
}

TEST_F(VehicleRegistryTest, MemoryBytesReflectsContents) {
  const std::size_t before = registry_->MemoryBytes();
  std::vector<std::pair<CellId, KineticEdgeEntry>> entries;
  for (int i = 0; i < 50; ++i) {
    entries.emplace_back(grid_->CellOfVertex(0),
                         Entry(9, 2, 10.0, 5.0, 8.0, 0, 1));
  }
  registry_->SetVehicleEdges(9, entries);
  EXPECT_GT(registry_->MemoryBytes(), before);
}

}  // namespace
}  // namespace ptar
