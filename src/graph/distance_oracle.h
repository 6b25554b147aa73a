// Counting, caching front-end for exact shortest-path distance queries.
//
// The paper's main cost measure besides wall-clock time is "compdists": the
// number of shortest-path distance computations an algorithm performs. Every
// matcher draws distances exclusively through a DistanceOracle so the count
// is uniform across BA / SSA / DSA: one compdist per distinct pair read
// within a request, however the value was produced.
//
// Two interchangeable exact backends sit below the oracle:
//  - kDijkstra (default): plain Dijkstra searches (DijkstraEngine).
//  - kCH: contraction-hierarchy queries (CHQuery over a shared prebuilt
//    CHGraph) — bidirectional point-to-point, one-to-all by a PHAST-style
//    downward sweep.
// Both are exact; compdist accounting and BatchStats semantics are
// backend-independent. Values may differ between backends in the low bits
// (floating-point sums associate differently along shortcuts), which is
// inside the tolerance every cross-implementation comparison in this
// codebase already applies.
//
// Two rows per request. Every distance a matcher reads has the request's
// pickup s or dropoff d as one endpoint (matchers never refresh a kinetic
// tree; the engine does that before matching), and so does every leg the
// engine's commit of the chosen option reads: the matching oracles and
// the engine's maintenance oracle both call BeginRequest(s, d), which
// anchors row 0 at s and row 1 at d; a Dist(a, b) with s as an endpoint
// reads s's row, otherwise one with d reads d's row, and everything else
// goes to the memo and a point-to-point search — a path no matcher or
// commit takes, which serves the maintenance oracle's refreshes, routes
// and audits, and the reference matcher. A row is one full one-to-all
// search from its anchor, run on the row's first read (so a request that
// never reads d's row never fills it) into arrays allocated on the first
// fill (so an oracle that never anchors pays nothing). A per-row read mark
// counts each pair once per request.
//
// Legs carried between oracles. The committing match's oracle already
// holds both rows when the engine commits, so it exports their values at
// the few vertices the commit can read (ExportLegs: the skyline vehicles'
// locations and stops, and d), and the maintenance oracle anchors with
// them (BeginRequest(s, d, legs)): a pair the legs hold is served from
// the oracle's own copy, with the row's bits, and only a pair outside
// them fills the row. RowFor's rule stays the one rule for which row
// serves a pair, on both sides.
//
// Bit-determinism contract: within one request (between BeginRequest or
// ClearCache calls) every query for a pair returns the exact same double.
// A row pair's value is its anchor's one-to-all value; a memo pair's value
// is the backend's result in the direction the pair was first asked. On
// kDijkstra a row value is bit-identical to PointToPoint(anchor, v) — the
// heap evolution up to v's settlement does not depend on the stopping rule
// — and so is BatchDist(src, ts) to the equivalent serial Dist calls. On
// kCH the downward sweep associates its sums top-down while the
// bidirectional query adds fwd + bwd halves, so row or batch values and
// point-to-point values for the same pair may differ in the low bits.
//
// Connected-component labels (computed once at construction) short-circuit
// unreachable memo pairs: they are answered kInfDistance — still cached and
// counted — without running a search. A row reads kInfDistance for every
// vertex its search does not reach.

#ifndef PTAR_GRAPH_DISTANCE_ORACLE_H_
#define PTAR_GRAPH_DISTANCE_ORACLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "graph/ch_graph.h"
#include "graph/ch_query.h"
#include "graph/dijkstra.h"
#include "graph/road_network.h"
#include "graph/types.h"

namespace ptar {

/// Which exact shortest-path engine serves a DistanceOracle's misses.
enum class DistanceBackend {
  kDijkstra,  ///< Plain Dijkstra sweeps; no preprocessing.
  kCH,        ///< Contraction hierarchy + downward-sweep one-to-all.
};

/// "dijkstra" / "ch" (the --distance_backend flag vocabulary).
const char* DistanceBackendName(DistanceBackend backend);
StatusOr<DistanceBackend> ParseDistanceBackend(const std::string& name);

/// One request's row values at a few vertices, carried from the oracle
/// that filled the rows (DistanceOracle::ExportLegs) to one that starts
/// the same request (DistanceOracle::BeginRequest).
struct RequestLegs {
  VertexId s = kInvalidVertex;
  VertexId d = kInvalidVertex;
  /// Distinct vertices, ascending.
  std::vector<VertexId> at;
  /// dist[r][i] is row r's value (0: s's row, 1: d's) at at[i]; empty when
  /// row r was unfilled.
  std::vector<Distance> dist[2];
};

class DistanceOracle {
 public:
  /// Expected live pairs per request; used to pre-size the memo cache so the
  /// per-request fill never rehashes.
  static constexpr std::size_t kDefaultCacheReserve = 1024;

  /// Dijkstra-backed oracle.
  explicit DistanceOracle(const RoadNetwork* graph)
      : DistanceOracle(graph, nullptr) {}

  /// CH-backed oracle when `ch` is non-null (it must be built over `graph`
  /// and outlive the oracle); Dijkstra-backed otherwise.
  DistanceOracle(const RoadNetwork* graph, const CHGraph* ch);

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  DistanceBackend backend() const {
    return ch_ == nullptr ? DistanceBackend::kDijkstra : DistanceBackend::kCH;
  }

  /// Starts a request: drops the memo (keeping its bucket capacity) and
  /// anchors row 0 at `s` and row 1 at `d`. Rows are filled on first read.
  /// A row pair that `legs` (exported for the same s and d) holds is read
  /// from a copy of it instead — counted, marked and offered to the fault
  /// hook like any row read — and never fills its row.
  void BeginRequest(VertexId s, VertexId d, const RequestLegs& legs = {});

  /// Both rows' values at `at` (duplicates allowed), for an oracle that
  /// starts the same request with them. Reads filled rows only: an unfilled
  /// row contributes nothing, and nothing is counted, marked or offered to
  /// the fault hook. Empty while a fault hook is installed, because a
  /// failed pair reads kInfDistance in its row and the importer must get
  /// real distances.
  RequestLegs ExportLegs(std::vector<VertexId> at) const;

  /// Exact shortest-path distance between a and b (undirected, so symmetric).
  /// Reads s's row when s is an endpoint, else d's row when d is one, else
  /// the memo. Counts one compdist the first time a pair is read.
  Distance Dist(VertexId a, VertexId b);

  /// Distances from `source` to every target, in target order, via (at most)
  /// one one-to-many query. Semantically identical — including compdist
  /// accounting and returned bits — to calling Dist(source, t) for each t in
  /// order: row pairs are read from their row, cached pairs are served from
  /// the cache, every distinct uncached pair counts exactly one compdist,
  /// duplicates count once, and source==target pairs are 0.0 and free.
  /// `out` is resized to targets.size().
  void BatchDist(VertexId source, std::span<const VertexId> targets,
                 std::vector<Distance>* out);

  /// Shortest path (vertex sequence) between a and b. Counts one compdist and
  /// caches the endpoint distance. Empty if b is unreachable.
  std::vector<VertexId> Path(VertexId a, VertexId b);

  /// Distance computations — distinct pairs read per request — since
  /// construction or the last ResetStats().
  std::uint64_t compdists() const { return compdists_; }
  void ResetStats() {
    compdists_ = 0;
    faults_ = 0;
  }

  /// Fault-injection seam (src/check): the hook is consulted once per pair
  /// on every *actual* backend computation (point-to-point or per sweep
  /// target) and on a row pair's first read in a request, as
  /// hook(anchor, v) — never for cached pairs or pairs the search did not
  /// reach. Returning true makes the oracle answer kInfDistance for that
  /// pair for the rest of the request, counted exactly like a real
  /// computation; the hook body may also sleep to emulate a slow backend
  /// (on a row, per pair read, never inside the fill). Decisions must be a
  /// pure function of the pair (plus hook-internal seeds) to preserve the
  /// oracle's determinism contract. Pass nullptr to uninstall.
  using FaultHook = std::function<bool(VertexId, VertexId)>;
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Number of computations the fault hook failed since ResetStats().
  /// Matchers use a nonzero count to tag their result `complete = false`.
  std::uint64_t faults() const { return faults_; }

  /// Batching instrumentation (sweeps and row fills run, pairs per sweep,
  /// first reads served by a row).
  const BatchStats& batch_stats() const { return batch_stats_; }
  void ResetBatchStats() { batch_stats_ = BatchStats{}; }

  /// Drops all memoized pairs and both row anchors, so every later Dist is
  /// a memo read or a point-to-point search in the asked direction. Keeps
  /// the memo's bucket capacity, so steady-state request processing does
  /// not rehash every request.
  void ClearCache() { BeginRequest(kInvalidVertex, kInvalidVertex); }
  std::size_t cache_size() const { return cache_.size(); }
  std::size_t cache_bucket_count() const { return cache_.bucket_count(); }

  const RoadNetwork& graph() const { return *graph_; }

 private:
  static std::uint64_t Key(VertexId a, VertexId b) {
    static_assert(sizeof(VertexId) <= sizeof(std::uint32_t),
                  "Key() packs two VertexIds into 64 bits; widen the key "
                  "before widening VertexId");
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  bool SameComponent(VertexId a, VertexId b) const {
    return component_[a] == component_[b];
  }

  /// One one-to-all search result, anchored at a request endpoint.
  struct Row {
    VertexId anchor = kInvalidVertex;
    bool filled = false;
    /// Vertex-indexed distances from the anchor (kInfDistance where the
    /// search did not reach); allocated on the first fill.
    std::vector<Distance> dist;
    /// read[v] != 0 once pair (anchor, v) was read this request. Every
    /// request refills its rows, so the fill clears the marks.
    std::vector<char> read;
    /// Values imported by BeginRequest, ascending by vertex, each with its
    /// read mark. A vertex here is always read here, filled row or not.
    struct Leg {
      VertexId v = kInvalidVertex;
      Distance dist = kInfDistance;
      char read = 0;
    };
    std::vector<Leg> legs;
  };

  /// The row serving pair (a, b) — s's row if s is an endpoint, else d's —
  /// or null; *other receives the endpoint that is not the anchor.
  Row* RowFor(VertexId a, VertexId b, VertexId* other);

  /// Reads (anchor, v) from the row's imported legs when they hold v, else
  /// from `row`, filling it first if needed; counts the pair and consults
  /// the fault hook on its first read this request.
  Distance ReadRow(Row& row, VertexId v);

  /// Runs the anchor's one-to-all search into the row.
  void FillRow(Row& row);

  /// Backend dispatch for an uncached point-to-point pair (reachability
  /// already checked).
  Distance ComputePointToPoint(VertexId a, VertexId b);

  /// Backend dispatch for one one-to-many query over `sweep_targets_`;
  /// results land in `sweep_dists_` (same order).
  void ComputeSweep(VertexId source);

  /// Consults the fault hook for every sweep target, overriding failed
  /// targets in `sweep_dists_` with kInfDistance.
  void ApplyFaultHookToSweep(VertexId source);

  const RoadNetwork* graph_;
  const CHGraph* ch_;
  DijkstraEngine engine_;
  /// Per-oracle CH workspace (null on the Dijkstra backend); the CHGraph
  /// itself is shared and immutable, so concurrent oracles never contend.
  std::unique_ptr<CHQuery> ch_query_;
  /// Connected-component label per vertex; pairs in different components
  /// are answered without a search.
  std::vector<int> component_;
  std::unordered_map<std::uint64_t, Distance> cache_;
  /// Row 0 is anchored at the request's s, row 1 at its d.
  Row rows_[2];
  std::uint64_t compdists_ = 0;
  std::uint64_t faults_ = 0;
  FaultHook fault_hook_;
  BatchStats batch_stats_;
  /// Scratch for BatchDist (avoids per-call allocation).
  std::vector<VertexId> sweep_targets_;
  std::vector<Distance> sweep_dists_;
};

}  // namespace ptar

#endif  // PTAR_GRAPH_DISTANCE_ORACLE_H_
