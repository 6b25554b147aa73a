#include "grid/vehicle_registry.h"

#include <algorithm>
#include <string>

namespace ptar {

namespace {

const CellAggregates kEmptyAggregates{};

}  // namespace

VehicleRegistry::VehicleRegistry(const GridIndex* grid) : grid_(grid) {
  PTAR_CHECK(grid != nullptr);
}

VehicleRegistry::CellState& VehicleRegistry::StateFor(CellId cell) {
  ++epoch_;
  return cells_[cell];
}

const VehicleRegistry::CellState* VehicleRegistry::FindState(
    CellId cell) const {
  auto it = cells_.find(cell);
  return it == cells_.end() ? nullptr : &it->second;
}

CellId VehicleRegistry::EmptyCellOf(VehicleId vehicle) const {
  return vehicle < empty_vehicle_cell_.size() ? empty_vehicle_cell_[vehicle]
                                              : kInvalidCell;
}

void VehicleRegistry::AddEmptyVehicle(VehicleId vehicle, VertexId location) {
  PTAR_CHECK(EmptyCellOf(vehicle) == kInvalidCell)
      << "vehicle " << vehicle << " already registered as empty";
  if (vehicle >= empty_vehicle_cell_.size()) {
    empty_vehicle_cell_.resize(vehicle + 1, kInvalidCell);
  }
  const CellId cell = grid_->CellOfVertex(location);
  StateFor(cell).empty_vehicles.push_back(vehicle);
  empty_vehicle_cell_[vehicle] = cell;
}

void VehicleRegistry::RemoveEmptyVehicle(VehicleId vehicle) {
  const CellId cell = EmptyCellOf(vehicle);
  PTAR_CHECK(cell != kInvalidCell)
      << "vehicle " << vehicle << " is not registered as empty";
  std::vector<VehicleId>& list = StateFor(cell).empty_vehicles;
  auto pos = std::find(list.begin(), list.end(), vehicle);
  PTAR_DCHECK(pos != list.end());
  *pos = list.back();
  list.pop_back();
  empty_vehicle_cell_[vehicle] = kInvalidCell;
}

void VehicleRegistry::MoveEmptyVehicle(VehicleId vehicle,
                                       VertexId new_location) {
  const CellId cell = EmptyCellOf(vehicle);
  PTAR_CHECK(cell != kInvalidCell)
      << "vehicle " << vehicle << " is not registered as empty";
  const CellId new_cell = grid_->CellOfVertex(new_location);
  if (cell == new_cell) return;
  RemoveEmptyVehicle(vehicle);
  StateFor(new_cell).empty_vehicles.push_back(vehicle);
  empty_vehicle_cell_[vehicle] = new_cell;
}

std::span<const VehicleId> VehicleRegistry::EmptyVehicles(CellId cell) const {
  const CellState* state = FindState(cell);
  if (state == nullptr) return {};
  return state->empty_vehicles;
}

void VehicleRegistry::SetVehicleEdges(
    VehicleId vehicle,
    const std::vector<std::pair<CellId, KineticEdgeEntry>>& entries) {
  ClearVehicleEdges(vehicle);
  if (vehicle >= vehicle_edge_cells_.size()) {
    vehicle_edge_cells_.resize(vehicle + 1);
  }
  std::vector<CellId>& cells = vehicle_edge_cells_[vehicle];
  for (const auto& [cell, entry] : entries) {
    PTAR_DCHECK(entry.vehicle == vehicle);
    CellState& state = StateFor(cell);
    state.edges.push_back(entry);
    state.aggregates_dirty = true;
    cells.push_back(cell);
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
}

void VehicleRegistry::ClearVehicleEdges(VehicleId vehicle) {
  if (vehicle >= vehicle_edge_cells_.size()) return;
  std::vector<CellId>& cells = vehicle_edge_cells_[vehicle];
  for (const CellId cell : cells) {
    CellState& state = StateFor(cell);
    std::erase_if(state.edges, [vehicle](const KineticEdgeEntry& entry) {
      return entry.vehicle == vehicle;
    });
    state.aggregates_dirty = true;
  }
  cells.clear();
}

void VehicleRegistry::AdjustVehicleDistTr(VehicleId vehicle,
                                          Distance driven) {
  if (driven <= 0.0 || vehicle >= vehicle_edge_cells_.size()) return;
  for (const CellId cell : vehicle_edge_cells_[vehicle]) {
    CellState& state = StateFor(cell);
    for (KineticEdgeEntry& entry : state.edges) {
      if (entry.vehicle == vehicle) {
        entry.dist_tr = std::max<Distance>(0.0, entry.dist_tr - driven);
      }
    }
    state.aggregates_dirty = true;
  }
}

std::span<const KineticEdgeEntry> VehicleRegistry::NonEmptyEntries(
    CellId cell) const {
  const CellState* state = FindState(cell);
  if (state == nullptr) return {};
  return state->edges;
}

CellAggregates VehicleRegistry::ComputeAggregates(const GridIndex& grid,
                                                  CellId cell,
                                                  const CellState& state) {
  CellAggregates agg;
  for (const KineticEdgeEntry& entry : state.edges) {
    agg.any = true;
    agg.has_tail = agg.has_tail || entry.tail;
    agg.max_capacity = std::max(agg.max_capacity, entry.capacity);
    agg.max_detour = std::max(agg.max_detour, entry.detour);
    // Triangle-inequality corrections for endpoints outside this cell
    // (see the CellAggregates contract in the header).
    const bool ox_in = grid.CellOfVertex(entry.ox) == cell;
    const bool oy_in = !entry.tail && grid.CellOfVertex(entry.oy) == cell;
    const Distance adj_dist_tr =
        entry.dist_tr - (ox_in ? 0.0 : entry.leg_dist);
    const int endpoints_in = (ox_in ? 1 : 0) + (oy_in ? 1 : 0);
    const Distance adj_leg = (3 - endpoints_in) * entry.leg_dist;
    agg.min_dist_tr = std::min(agg.min_dist_tr, adj_dist_tr);
    agg.max_leg_dist = std::max(agg.max_leg_dist, adj_leg);
  }
  return agg;
}

const CellAggregates& VehicleRegistry::Aggregates(CellId cell) const {
  const CellState* state = FindState(cell);
  if (state == nullptr) return kEmptyAggregates;
  PTAR_CHECK(!state->aggregates_dirty)
      << "aggregates of cell " << cell << " read before the rebuild";
  return state->aggregates;
}

void VehicleRegistry::RebuildDirtyAggregates() {
  for (auto& [cell, state] : cells_) {
    if (!state.aggregates_dirty) continue;
    state.aggregates = ComputeAggregates(*grid_, cell, state);
    state.aggregates_dirty = false;
  }
}

std::size_t VehicleRegistry::AuditAggregates(
    std::vector<std::string>* findings) {
  std::size_t checked = 0;
  for (auto& [cell, state] : cells_) {
    if (state.aggregates_dirty) continue;  // rebuilt before next use
    ++checked;
    const CellAggregates fresh = ComputeAggregates(*grid_, cell, state);
    if (fresh == state.aggregates) continue;
    if (findings != nullptr) {
      findings->push_back("cell " + std::to_string(cell) +
                          ": stored aggregates diverge from a fresh "
                          "rebuild of its registered edges");
    }
    state.aggregates = fresh;  // repair
  }
  return checked;
}

std::size_t VehicleRegistry::MemoryBytes() const {
  // Actual heap footprint, not just payload: the cell table owns its
  // bucket array plus one individually allocated node (entry + chain
  // pointer) per cell, and every non-empty vector owns one block of
  // capacity() elements. kAllocOverhead is the per-malloc bookkeeping the
  // kinetic accounting uses (verified against a counting allocator in
  // kinetic_memory_test).
  constexpr std::size_t kAllocOverhead = 16;
  std::size_t bytes = 0;
  const auto block = [&](std::size_t cap, std::size_t elem) {
    if (cap != 0) bytes += cap * elem + kAllocOverhead;
  };
  block(cells_.bucket_count(), sizeof(void*));
  bytes += cells_.size() * (sizeof(std::pair<const CellId, CellState>) +
                            sizeof(void*) + kAllocOverhead);
  for (const auto& [cell, state] : cells_) {
    block(state.empty_vehicles.capacity(), sizeof(VehicleId));
    block(state.edges.capacity(), sizeof(KineticEdgeEntry));
  }
  block(vehicle_edge_cells_.capacity(), sizeof(std::vector<CellId>));
  for (const std::vector<CellId>& cells : vehicle_edge_cells_) {
    block(cells.capacity(), sizeof(CellId));
  }
  block(empty_vehicle_cell_.capacity(), sizeof(CellId));
  return bytes;
}

}  // namespace ptar
