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
// Aggregates are maintained lazily: mutations mark the cell dirty and the
// next Aggregates() call rebuilds them in one pass over the cell's entries.
//
// Sharding & epoch snapshots (request-parallel engine). Cell state is
// partitioned into kNumShards shards by cell id; each shard's state lives
// behind a copy-on-write shared_ptr and carries a monotonically increasing
// epoch (bumped on every mutation that touches the shard). TakeSnapshot()
// captures all shard pointers plus their epochs in O(kNumShards); the
// snapshot is an immutable, consistent view that concurrent matcher workers
// read without any lock. A writer mutating a shard whose state is shared
// with an open snapshot first clones that shard (never the whole registry),
// so snapshots are isolated from later writes at shard granularity while
// the steady state — no snapshot open — mutates in place at the same cost
// as the unsharded registry.

#ifndef PTAR_GRID_VEHICLE_REGISTRY_H_
#define PTAR_GRID_VEHICLE_REGISTRY_H_

#include <cstdint>
#include <limits>
#include <memory>
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
  /// Shard count: enough that the COW clone paid when a snapshot is open
  /// touches ~1/16 of the cells, small enough that TakeSnapshot() stays a
  /// handful of pointer copies.
  static constexpr int kNumShards = 16;

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

  /// Aggregates for the cell-level pruning lemmas; rebuilt lazily.
  ///
  /// The lazy rebuild writes through `mutable` members, so this live read
  /// is single-threaded; matchers read a TakeSnapshot() view instead, whose
  /// aggregates are rebuilt at capture.
  const CellAggregates& Aggregates(CellId cell) const;

  /// Eagerly rebuilds every dirty cell's aggregates. Aggregate values only
  /// depend on the cell's registered edges, so eager and lazy rebuilds
  /// produce identical results; this just moves the work before a parallel
  /// read phase.
  void RebuildDirtyAggregates();

  /// Consistency audit (kinetic/tree_auditor): recomputes every *clean*
  /// cell's aggregates from its registered edges and compares bit-for-bit
  /// with the stored values (a rebuild from identical entries is
  /// deterministic, so any difference is corruption, not rounding). Dirty
  /// cells are skipped — they are rebuilt before their next use by
  /// contract. Appends one line per inconsistent cell to `findings` (may be
  /// null) and returns the number of clean cells checked; the stored
  /// aggregates are repaired as a side effect of the recompute.
  std::size_t AuditAggregates(std::vector<std::string>* findings) const;

  /// Approximate resident memory of the dynamic lists, in bytes.
  std::size_t MemoryBytes() const;

  const GridIndex& grid() const { return *grid_; }

  // --- Sharding & epoch snapshots. ---

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardOfCell(CellId cell) const {
    return static_cast<int>(cell % shards_.size());
  }
  /// Monotonic per-shard mutation counter (bumped before every write that
  /// touches the shard). Never decreases; equal epochs imply an unchanged
  /// shard.
  std::uint64_t ShardEpoch(int shard) const { return shards_[shard].epoch; }
  /// Sum of all shard epochs; equal global epochs imply an unchanged
  /// registry. A "quiesced epoch" in the engine sense is a global epoch
  /// observed while no pipeline wave is in flight.
  std::uint64_t GlobalEpoch() const;

 private:
  struct CellState {
    std::vector<VehicleId> empty_vehicles;
    std::vector<KineticEdgeEntry> edges;
    mutable CellAggregates aggregates;
    mutable bool aggregates_dirty = true;
  };

  /// Value-type shard payload; cloned wholesale by the COW write path.
  struct ShardState {
    // Sparse: only cells that ever held a vehicle get state.
    std::unordered_map<CellId, CellState> cells;
  };

  struct Shard {
    std::shared_ptr<ShardState> state;
    std::uint64_t epoch = 0;
  };

 public:
  /// Immutable, consistent view of the whole registry, captured in
  /// O(num_shards). Readers need no lock: a writer that mutates a shard
  /// shared with this snapshot clones the shard first, so the view is
  /// frozen at capture time. Aggregates must be clean at capture
  /// (TakeSnapshot() rebuilds dirty cells first) — snapshot reads never
  /// rebuild, they are pure.
  class Snapshot {
   public:
    Snapshot() = default;

    std::span<const VehicleId> EmptyVehicles(CellId cell) const;
    std::span<const KineticEdgeEntry> NonEmptyEntries(CellId cell) const;
    const CellAggregates& Aggregates(CellId cell) const;

    int num_shards() const { return static_cast<int>(shards_.size()); }
    /// Epoch of `shard` at capture time.
    std::uint64_t ShardEpoch(int shard) const { return epochs_[shard]; }
    /// Sum of all shard epochs at capture time.
    std::uint64_t global_epoch() const { return global_epoch_; }

   private:
    friend class VehicleRegistry;
    const CellState* FindCell(CellId cell) const;

    std::vector<std::shared_ptr<const ShardState>> shards_;
    std::vector<std::uint64_t> epochs_;
    std::uint64_t global_epoch_ = 0;
  };

  /// Captures a consistent view of every shard. Rebuilds dirty aggregates
  /// first so the snapshot is pure-read for concurrent matchers. Cheap:
  /// num_shards shared_ptr copies (no cell data is copied unless a later
  /// write lands on a shard the snapshot still references).
  Snapshot TakeSnapshot();

 private:
  /// Write-path access to a cell's shard: clones the shard state if any
  /// snapshot still shares it (COW) and bumps the shard epoch.
  ShardState& MutableShard(int shard);
  CellState& StateFor(CellId cell);
  const CellState* FindState(CellId cell) const;
  void RebuildAggregates(CellId cell, const CellState& state) const;

  const GridIndex* grid_;
  std::vector<Shard> shards_;
  // Reverse maps for O(entries) removal (writer-side bookkeeping only;
  // snapshots never need them).
  std::unordered_map<VehicleId, CellId> empty_vehicle_cell_;
  std::unordered_map<VehicleId, std::vector<CellId>> vehicle_edge_cells_;
};

/// Engine-facing alias: matchers reading from a frozen fleet view take a
/// `const RegistrySnapshot*` (see MatchContext::snapshot).
using RegistrySnapshot = VehicleRegistry::Snapshot;

}  // namespace ptar

#endif  // PTAR_GRID_VEHICLE_REGISTRY_H_
