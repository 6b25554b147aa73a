// Dynamic per-cell vehicle lists layered on the static GridIndex
// (paper Section IV.B).
//
// Every grid cell maintains (iv) an empty-vehicle list and (v) a non-empty
// vehicle list holding the kinetic-tree edges <o_x, o_y> whose scheduled path
// intersects the cell, each carrying the node annotations
// (capacity, detour, dist_tr) plus the leg length dist(o_x, o_y). Per cell,
// the registry exposes the aggregates the cell-level pruning lemmas
// (2, 4, 6, 8, 10) need:
//
//   max capacity, max detour, min dist_tr, max dist(o_x, o_y).
//
// Mutations mark a cell's aggregates dirty; RebuildDirtyAggregates()
// recomputes every dirty cell in one pass over its entries, and reads are
// pure. The engine rebuilds before each match round, so matcher workers
// read the registry in place, without a lock: no write runs while a round
// matches (DESIGN.md §12).

#ifndef PTAR_GRID_VEHICLE_REGISTRY_H_
#define PTAR_GRID_VEHICLE_REGISTRY_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "grid/grid_index.h"

namespace ptar {

using VehicleId = std::uint32_t;
inline constexpr VehicleId kInvalidVehicle =
    std::numeric_limits<VehicleId>::max();

/// One kinetic-tree edge <o_x, o_y> as registered in a grid cell.
struct KineticEdgeEntry {
  VehicleId vehicle = kInvalidVehicle;
  /// Seats still free when the vehicle traverses this leg (o_x.capacity).
  int capacity = 0;
  /// Maximum extra distance insertable on this leg without violating any
  /// assigned request's waiting/service constraint (o_x.detour).
  Distance detour = 0.0;
  /// Trip distance from the vehicle's current location to o_x (o_x.dist_tr).
  Distance dist_tr = 0.0;
  /// Shortest-path length of the leg, dist(o_x, o_y); 0 for the tail edge
  /// <o_k, empty>.
  Distance leg_dist = 0.0;
  /// Whether o_y is the empty tail sentinel (insertion after the last stop).
  bool tail = false;
  /// Endpoints, for per-edge lemma evaluation during matching.
  VertexId ox = kInvalidVertex;
  VertexId oy = kInvalidVertex;  // kInvalidVertex when tail
};

/// Cell-level aggregates over the registered kinetic edges, in the exact
/// form the cell pruning lemmas (4, 6, 8, 10) consume.
///
/// The lemmas bound dist(x, o_x) and dist(x, o_y) from below by
/// ldist(x, cell), which is only valid for endpoints *inside* the cell. For
/// an edge registered in a cell that contains only one endpoint (or none,
/// for a pass-through registration), the other endpoint still lies within
/// leg_dist of a point inside the cell, so dist(x, endpoint) >=
/// ldist(x, cell) - leg_dist by the triangle inequality. The aggregates
/// bake those corrections in:
///
///   min_dist_tr  = min over edges of (dist_tr - (o_x in cell ? 0 : leg))
///   max_leg_dist = max over edges of ((3 - #endpoints-in-cell) * leg)
///
/// so that "ldist + min_dist_tr" and "2*ldist - max_leg_dist" are sound
/// lower bounds for *every* registered edge, whatever its endpoints' cells.
struct CellAggregates {
  friend bool operator==(const CellAggregates&,
                         const CellAggregates&) = default;

  bool any = false;
  /// Whether any registered edge is a tail edge <o_k, empty>. Tail edges
  /// admit insertions *after* the last stop, whose detour lower bound is
  /// just ldist (plus dist(s, d) on the start side) rather than
  /// 2*ldist - leg; the cell-level price clauses must weaken accordingly.
  bool has_tail = false;
  int max_capacity = 0;
  Distance max_detour = 0.0;
  Distance min_dist_tr = kInfDistance;  ///< Adjusted; may be negative.
  Distance max_leg_dist = 0.0;          ///< Adjusted (see above).
};

class VehicleRegistry {
 public:
  explicit VehicleRegistry(const GridIndex* grid);

  VehicleRegistry(const VehicleRegistry&) = delete;
  VehicleRegistry& operator=(const VehicleRegistry&) = delete;
  VehicleRegistry(VehicleRegistry&&) = default;
  VehicleRegistry& operator=(VehicleRegistry&&) = default;

  // --- Empty vehicles (keyed by current location's cell). ---

  void AddEmptyVehicle(VehicleId vehicle, VertexId location);
  void RemoveEmptyVehicle(VehicleId vehicle);
  /// Updates the location of an already-registered empty vehicle.
  void MoveEmptyVehicle(VehicleId vehicle, VertexId new_location);
  std::span<const VehicleId> EmptyVehicles(CellId cell) const;

  // --- Non-empty vehicles (kinetic-tree edge registrations). ---

  /// Replaces all registrations of `vehicle` with the given (cell, entry)
  /// pairs. Typically called after every kinetic-tree change.
  void SetVehicleEdges(
      VehicleId vehicle,
      const std::vector<std::pair<CellId, KineticEdgeEntry>>& entries);

  /// Removes all non-empty registrations of `vehicle`.
  void ClearVehicleEdges(VehicleId vehicle);

  /// Lowers the registered dist_tr of every edge of `vehicle` by `driven`
  /// (clamped at zero). By the network triangle inequality the result stays
  /// a valid lower bound on the true trip distance for every branch, which
  /// keeps the cell-level pruning lemmas sound between full
  /// re-registrations (see DESIGN.md).
  void AdjustVehicleDistTr(VehicleId vehicle, Distance driven);

  std::span<const KineticEdgeEntry> NonEmptyEntries(CellId cell) const;

  /// Aggregates for the cell-level pruning lemmas. A pure read: the cell
  /// must be clean, i.e. RebuildDirtyAggregates() ran after its last write.
  const CellAggregates& Aggregates(CellId cell) const;

  /// Rebuilds every dirty cell's aggregates from its registered edges. The
  /// one rebuild: callers run it after a batch of writes and before
  /// reading aggregates.
  void RebuildDirtyAggregates();

  /// Consistency audit (kinetic/tree_auditor): recomputes every *clean*
  /// cell's aggregates from its registered edges and compares bit-for-bit
  /// with the stored values (a rebuild from identical entries is
  /// deterministic, so any difference is corruption, not rounding). Dirty
  /// cells are skipped — they are rebuilt before their next use by
  /// contract. Appends one line per inconsistent cell to `findings` (may be
  /// null), repairs that cell's stored aggregates, and returns the number
  /// of clean cells checked.
  std::size_t AuditAggregates(std::vector<std::string>* findings);

  /// Approximate resident memory of the dynamic lists, in bytes.
  std::size_t MemoryBytes() const;

  const GridIndex& grid() const { return *grid_; }

  /// Writes so far: bumped once per cell state a mutation touches, never
  /// decreased. Equal values imply an unchanged registry. The lifecycle
  /// log's `epoch` is this count when the committing match ran.
  std::uint64_t epoch() const { return epoch_; }

 private:
  struct CellState {
    std::vector<VehicleId> empty_vehicles;
    std::vector<KineticEdgeEntry> edges;
    CellAggregates aggregates;
    bool aggregates_dirty = true;
  };

  /// Write access to a cell's state (created on first use); bumps epoch_.
  CellState& StateFor(CellId cell);
  const CellState* FindState(CellId cell) const;
  /// The cell `vehicle` is registered in as empty, or kInvalidCell.
  CellId EmptyCellOf(VehicleId vehicle) const;
  static CellAggregates ComputeAggregates(const GridIndex& grid, CellId cell,
                                          const CellState& state);

  const GridIndex* grid_;
  // Sparse: only cells that ever held a vehicle get state.
  std::unordered_map<CellId, CellState> cells_;
  std::uint64_t epoch_ = 0;
  // Reverse maps for O(entries) removal, indexed by the dense vehicle ids
  // and grown on first use: each empty vehicle's cell (kInvalidCell when
  // not registered as empty), and the sorted distinct cells holding each
  // vehicle's edges (empty when it has none).
  std::vector<CellId> empty_vehicle_cell_;
  std::vector<std::vector<CellId>> vehicle_edge_cells_;
};

}  // namespace ptar

#endif  // PTAR_GRID_VEHICLE_REGISTRY_H_
