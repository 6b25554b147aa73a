// Grid index over a road network (paper Section IV.A).
//
// The network bounding box is partitioned into uniform cells. Endpoints of
// edges that span two cells are *border vertices* of both cells. The index
// precomputes, per vertex, the exact network distances to the border vertices
// of its own cell (and their minimum, `v.min`), and a matrix M of lower-bound
// distances D_ij between every pair of non-empty cells together with the
// witness border pair (x_ij, y_ij) realizing D_ij. From these it answers in
// O(1) / O(|BV|):
//
//   ldist(u, v) = D_ij + u.min + v.min          (0 if same cell)
//   udist(u, v) = D_ij + dist(u, x_ij) + dist(v, y_ij)
//                 (same cell: min_b dist(u,b) + dist(v,b))
//   ldist(u, g) = u.min + D_ij                  (0 if u in g)
//
// Each cell also carries the list of all other non-empty cells sorted in
// ascending order of D — the search order used by SSA / DSA.

#ifndef PTAR_GRID_GRID_INDEX_H_
#define PTAR_GRID_GRID_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/road_network.h"
#include "graph/types.h"

namespace ptar {

/// Raw row-major cell identifier within the grid geometry.
using CellId = std::uint32_t;
inline constexpr CellId kInvalidCell = std::numeric_limits<CellId>::max();

/// Axis-aligned uniform grid over the network bounding box.
class GridGeometry {
 public:
  GridGeometry() = default;
  GridGeometry(double min_x, double min_y, double cell_size, int cols,
               int rows)
      : min_x_(min_x),
        min_y_(min_y),
        cell_size_(cell_size),
        cols_(cols),
        rows_(rows) {}

  /// Cell containing a point; points outside the box clamp to the boundary
  /// cells.
  CellId CellOfPoint(const Coord& p) const;

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  std::size_t num_cells() const {
    return static_cast<std::size_t>(cols_) * rows_;
  }
  double cell_size() const { return cell_size_; }

 private:
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double cell_size_ = 1.0;
  int cols_ = 1;
  int rows_ = 1;
};

class GridIndex {
 public:
  struct Options {
    /// Side length of a square grid cell, in meters (paper Table II sweeps
    /// 3333 m down to 909 m on the ~40 km Shanghai box).
    double cell_size_meters = 500.0;
  };

  /// Quadtree partitioning options (the paper's future-work alternative:
  /// an index "adaptive to the network structure and density").
  struct AdaptiveOptions {
    /// A quadrant splits while it holds more vertices than this.
    std::size_t max_vertices_per_cell = 64;
    /// ... unless it is already this small (meters).
    double min_cell_size_meters = 50.0;
  };

  /// How the vertex set was partitioned into cells.
  enum class PartitionKind { kUniformGrid, kQuadtree };

  /// Builds the full index over a uniform grid: cell assignment, border
  /// detection, per-vertex border distances, the M matrix with witnesses,
  /// and sorted cell lists. The graph must outlive the index.
  static StatusOr<GridIndex> Build(const RoadNetwork* graph,
                                   const Options& options);

  /// Same index machinery over a quadtree partition whose leaves adapt to
  /// vertex density: dense downtown areas get small cells (tight bounds),
  /// sparse outskirts get large ones (fewer cells). Every GridIndex
  /// consumer (registry, matchers) works unchanged. geometry() is not
  /// meaningful for adaptive builds.
  static StatusOr<GridIndex> BuildAdaptive(const RoadNetwork* graph,
                                           const AdaptiveOptions& options);

  PartitionKind partition_kind() const { return partition_kind_; }

  GridIndex(GridIndex&&) = default;
  GridIndex& operator=(GridIndex&&) = default;
  GridIndex(const GridIndex&) = delete;
  GridIndex& operator=(const GridIndex&) = delete;

  const RoadNetwork& graph() const { return *graph_; }
  const GridGeometry& geometry() const { return geometry_; }

  CellId CellOfVertex(VertexId v) const { return cell_of_vertex_[v]; }

  /// Whether the cell contains at least one vertex.
  bool IsActive(CellId cell) const {
    return cell < active_index_.size() && active_index_[cell] >= 0;
  }
  std::size_t num_active_cells() const { return active_cells_.size(); }
  std::span<const CellId> active_cells() const { return active_cells_; }

  std::span<const VertexId> CellVertices(CellId cell) const;
  std::span<const VertexId> BorderVertices(CellId cell) const;

  /// Exact distances from v to the border vertices of its own cell, aligned
  /// with BorderVertices(CellOfVertex(v)).
  std::span<const Distance> BorderDistances(VertexId v) const;

  /// D_ij: lower bound on the distance between any vertex of cell a and any
  /// vertex of cell b. Both cells must be active. D_aa is 0.
  Distance CellPairLowerBound(CellId a, CellId b) const;

  /// Lower bound on dist(u, v). Never exceeds the true distance.
  Distance LowerBound(VertexId u, VertexId v) const;

  /// Upper bound on dist(u, v) (kInfDistance when no bound is derivable,
  /// e.g. a borderless cell). Never below the true distance.
  Distance UpperBound(VertexId u, VertexId v) const;

  /// ldist(u, g): lower bound on the distance from u to any vertex in cell g.
  Distance LowerBoundToCell(VertexId u, CellId cell) const;

  /// All active cells in ascending order of D from `cell`; the first entry is
  /// `cell` itself (D = 0). Unreachable cells (D = inf) come last.
  std::span<const CellId> CellsByDistance(CellId cell) const;

  /// Approximate resident memory of the static index, in bytes (Table IV's
  /// "grid index" row).
  std::size_t MemoryBytes() const;

  /// Appends to `out` the distinct active cells covered by a vertex
  /// sequence (used to register kinetic-tree edges whose scheduled path
  /// crosses several cells).
  void CollectCells(std::span<const VertexId> path,
                    std::vector<CellId>* out) const;

 private:
  GridIndex() = default;

  /// Shared pipeline: takes a vertex -> raw-cell assignment (raw ids dense
  /// or sparse, < num_raw_cells) and computes everything else.
  static StatusOr<GridIndex> BuildFromAssignment(
      const RoadNetwork* graph, std::vector<CellId> cell_of_vertex,
      std::size_t num_raw_cells, PartitionKind kind, GridGeometry geometry);

  int DenseIndex(CellId cell) const {
    PTAR_DCHECK(IsActive(cell));
    return active_index_[cell];
  }

  const RoadNetwork* graph_ = nullptr;
  GridGeometry geometry_;
  PartitionKind partition_kind_ = PartitionKind::kUniformGrid;

  std::vector<CellId> cell_of_vertex_;
  std::vector<CellId> active_cells_;     // dense -> raw cell id
  std::vector<std::int32_t> active_index_;  // raw cell id -> dense (-1)

  // Vertices grouped by cell (dense order), CSR-style.
  std::vector<std::size_t> cell_vertex_offsets_;
  std::vector<VertexId> cell_vertices_;

  // Border vertices grouped by cell (dense order), CSR-style.
  std::vector<std::size_t> cell_border_offsets_;
  std::vector<VertexId> cell_borders_;

  // Per vertex: distances to own-cell borders, aligned with the cell's
  // border list; CSR by vertex id.
  std::vector<std::size_t> vertex_border_dist_offsets_;
  std::vector<Distance> vertex_border_dists_;
  std::vector<Distance> v_min_;

  // Dense n_a x n_a matrices.
  std::vector<Distance> d_matrix_;
  struct WitnessPair {
    VertexId x = kInvalidVertex;  // border vertex in the row cell
    VertexId y = kInvalidVertex;  // border vertex in the column cell
  };
  std::vector<WitnessPair> witnesses_;

  // Per dense cell: all active cells sorted ascending by D (self first).
  std::vector<CellId> sorted_cells_;  // n_a * n_a, row-major
};

}  // namespace ptar

#endif  // PTAR_GRID_GRID_INDEX_H_
