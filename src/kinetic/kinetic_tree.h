// Kinetic tree: the per-vehicle index of all valid trip schedules
// (paper Section IV.B, after Huang et al. [17]).
//
// Representation (DESIGN.md §14). The tree is a node-sharing prefix tree
// held in an arena-backed structure-of-arrays BranchStore: every stop node
// lives once in flat pooled arrays (stop identity, leg distance,
// parent/child/sibling links), branches are the root-to-leaf paths, and
// sibling branches share their common prefix nodes. This replaces the
// earlier flat set of per-branch `std::vector<Stop>` copies: a tree with B
// branches of depth k costs O(distinct nodes) instead of O(B * k) stop
// copies across 2B+1 heap blocks. Validity is still checked against the
// single authoritative IsValidSchedule routine on materialized branches.
// The per-node annotations the paper stores are derived per branch, not
// stored: o_x.capacity is GapFreeSeats and o_x.detour is GapSlacks over the
// assigned requests, and o_x.dist_tr is the branch's leg prefix sum.
//
// Movement model. The vehicle keeps a distance odometer. Each assigned
// request stores its pickup deadline as an odometer value
// (odometer-at-assignment + planned-pickup-distance + w), so the paper's
// waiting-time constraint "actual - planned <= w" becomes
//   odometer_now + remaining-trip-distance-to-s <= deadline_odometer,
// which is exact while driving and trivially monotone. The service
// constraint similarly uses the pickup odometer once riders are on board.
//
// While the vehicle drives along the active (shortest total) branch, the
// shared first-leg node of every branch through the same first stop shrinks
// exactly in place (one write, all sharers); branches through a different
// first stop go stale and are repaired lazily by Refresh() — one distance
// per distinct first stop, through the caller's distance function, so
// repairs count as compdists exactly like the paper's "update the nodes
// connected to the root". Serving a stop advances the root copy-free:
// sibling subtrees are recycled into the arena free list and the served
// node's children become the new root children (no branch is re-copied).
//
// Bounded enumeration. By default the tree keeps every valid schedule (the
// paper's c.S_tr). An opt-in cap (`--tree_max_branches`) bounds the
// branch set with best-branch retention: the active (shortest) branch and
// every skyline-supporting branch — the Pareto-minimal set under
// (total distance, first-leg distance) — are always kept, and drops are
// counted (branches_dropped/cap_hits, surfaced as tree/* run counters).

#ifndef PTAR_KINETIC_KINETIC_TREE_H_
#define PTAR_KINETIC_KINETIC_TREE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/status.h"
#include "graph/types.h"
#include "grid/grid_index.h"
#include "grid/vehicle_registry.h"
#include "kinetic/branch_store.h"
#include "kinetic/request.h"
#include "kinetic/schedule.h"

namespace ptar {

/// A request currently assigned to a vehicle and not yet completed.
struct AssignedRequest {
  Request request;
  Distance direct_dist = 0.0;  ///< dist(s, d), computed at admission.
  /// Odometer value by which the pickup must happen:
  /// odometer-at-assignment + planned pickup distance + max_wait_dist.
  Distance deadline_odometer = 0.0;
  bool picked_up = false;
  /// Odometer when the riders boarded (valid once picked_up).
  Distance pickup_odometer = 0.0;
};

/// Context handed to the s-insertion pruning hook: one candidate gap
/// <o_x, o_y> of one branch, before any real distance is computed for it.
struct SPositionContext {
  VertexId ox = kInvalidVertex;  ///< Previous point (location or a stop).
  VertexId oy = kInvalidVertex;  ///< Next point; kInvalidVertex if tail.
  bool tail = false;             ///< Insertion after the last stop.
  Distance dist_tr_ox = 0.0;     ///< Trip distance from location to o_x.
  Distance leg_dist = 0.0;       ///< dist(o_x, o_y); 0 for tail.
  Distance detour_slack = 0.0;   ///< o_x.detour (kInfDistance if unbounded).
  int free_seats = 0;            ///< o_x.capacity.
};

/// Context for the d-insertion pruning hook; s has already been placed with
/// exact distances.
struct DPositionContext {
  VertexId ox = kInvalidVertex;
  VertexId oy = kInvalidVertex;
  bool tail = false;
  Distance dist_tr_ox = 0.0;    ///< Along the new schedule (s inserted).
  Distance leg_dist = 0.0;      ///< dist(o_x, o_y) in the original branch.
  Distance detour_slack = 0.0;  ///< Pre-insertion slack (upper bound).
  Distance pickup_dist = 0.0;   ///< Exact dist_tr'(location, s).
  Distance delta_s = 0.0;       ///< Exact detour added by placing s.
  /// True when d targets the same gap s was inserted into (Def. 7 case 2).
  bool same_gap = false;
  Distance dist_ox_s = 0.0;  ///< Exact dist(o_x, s) of the s-insertion.
};

/// Pruning hooks supplied by matchers (lemma evaluations). A hook returning
/// true means "skip this position without computing real distances". Null
/// hooks mean full enumeration (used by the baseline and by Commit).
struct InsertionHooks {
  std::function<bool(const SPositionContext&)> prune_s;
  std::function<bool(const DPositionContext&)> prune_d;
};

/// One feasible way to serve a new request: the full new schedule plus the
/// metrics that define the rider-facing option.
struct InsertionCandidate {
  Schedule schedule;
  Distance pickup_dist = 0.0;  ///< dist_tr'(location, s): the option's time.
  Distance total_dist = 0.0;   ///< dist_tr' of the new schedule.
};

class KineticTree {
 public:
  /// Exact shortest-path distance callback (normally a DistanceOracle).
  using DistFn = std::function<Distance(VertexId, VertexId)>;

  /// Default branch bound: none. The paper observes the worst case is
  /// (2 n_r)! but "the actual number of branches is much lower ... due to
  /// the constraints", and the tree's definition of c.S_tr keeps *all*
  /// valid schedules. Opt-in caps (`--tree_max_branches`) trade option
  /// coverage for memory with best-branch retention (see Commit).
  static constexpr std::size_t kUnlimitedBranches =
      std::numeric_limits<std::size_t>::max();

  KineticTree(VehicleId vehicle, VertexId location, int capacity,
              std::size_t max_branches = kUnlimitedBranches);

  KineticTree(const KineticTree&) = default;
  KineticTree& operator=(const KineticTree&) = default;
  KineticTree(KineticTree&&) = default;
  KineticTree& operator=(KineticTree&&) = default;

  // --- Observers. ---

  VehicleId vehicle() const { return vehicle_; }
  VertexId location() const { return location_; }
  int capacity() const { return capacity_; }
  /// Riders currently inside the vehicle.
  int onboard() const { return onboard_; }
  Distance odometer() const { return odometer_; }
  /// True iff no unfinished request is assigned (paper's "empty vehicle").
  bool IsEmpty() const { return assigned_.empty(); }
  const std::vector<AssignedRequest>& assigned() const { return assigned_; }

  /// Number of branches. An idle tree has exactly one (empty) branch.
  std::size_t num_branches() const {
    return store_.empty() ? 1 : store_.num_leaves();
  }
  /// Materializes branch `b` (stops and exact legs) out of the arena.
  Schedule BranchSchedule(std::size_t b) const;
  /// Materializes every branch in branch order. Convenience for audits,
  /// tests and the reference matcher; hot paths iterate num_branches() and
  /// reuse a scratch Schedule instead.
  std::vector<Schedule> Schedules() const;
  /// The branch the vehicle actually drives: minimal total distance.
  Schedule ActiveSchedule() const { return BranchSchedule(active_index_); }
  std::size_t active_index() const { return active_index_; }
  /// dist_tr of the current (active) schedule — the price baseline.
  Distance CurrentTotal() const;
  /// True if some non-active branch's first leg may be outdated; call
  /// Refresh() before relying on exact branch distances.
  bool stale() const { return stale_; }

  /// First waypoint of the active schedule, or kInvalidVertex if idle.
  VertexId NextStopLocation() const;

  /// Branch cap in force (kUnlimitedBranches by default).
  std::size_t max_branches() const { return max_branches_; }
  /// Branches discarded by the cap across the tree's lifetime, and the
  /// number of commits in which the cap was hit. Both stay 0 at the default
  /// (unlimited) setting; the engine surfaces the fleet sums as the
  /// "tree/branches_dropped" / "tree/cap_hits" run counters.
  std::uint64_t branches_dropped() const { return branches_dropped_; }
  std::uint64_t cap_hits() const { return cap_hits_; }

  // --- Matching. ---

  /// Enumerates all valid insertions of `request` into every branch,
  /// subject to the pruning hooks. Requires !stale(). `direct_dist` is
  /// dist(s, d). Candidates are distinct stop sequences: removing the
  /// request's two stops gives back the candidate's branch, their positions
  /// fix (i, j), and branches are distinct.
  std::vector<InsertionCandidate> EnumerateInsertions(
      const Request& request, Distance direct_dist, const DistFn& dist,
      const InsertionHooks& hooks) const;

  /// Assigns the request: replaces the branch set with every valid new
  /// schedule (full, unpruned enumeration per the paper's definition of
  /// c.S_tr) and records the waiting deadline from `planned_pickup_dist`.
  /// When a cap is configured and the fan-out exceeds it, retention keeps
  /// the active (shortest) branch and the (total, first-leg) Pareto set,
  /// fills the rest in deterministic shortest-first order, and counts the
  /// drops. Fails if no valid schedule exists. Requires !stale().
  Status Commit(const Request& request, Distance direct_dist,
                Distance planned_pickup_dist, const DistFn& dist);

  // --- Movement (driven by the simulator). ---

  /// The vehicle moved `driven` meters and is now at `new_location`, which
  /// must lie on the shortest path of the active branch's first leg (or be
  /// any vertex if the vehicle is idle). The active first-leg node shrinks
  /// in place (shared by every branch through the same first stop);
  /// branches through other first stops go stale.
  void MoveTo(VertexId new_location, Distance driven);

  struct StopEvent {
    RequestId request = kInvalidRequest;
    StopType type = StopType::kPickup;
    int riders = 0;
  };

  /// Serves the active schedule's first stop. The vehicle must be located
  /// exactly at it. Branches that begin with a different stop are pruned
  /// (their subtrees recycled into the arena); matching branches advance
  /// with the root — no copies. Returns what happened.
  StatusOr<StopEvent> ArriveAtNextStop();

  /// Repairs stale first legs with exact distances — one distance query per
  /// distinct non-active first stop, shared by all branches through it —
  /// and drops branches that became invalid; recomputes the active branch.
  void Refresh(const DistFn& dist);

  // --- Audit & repair (kinetic/tree_auditor, src/check fault injection). ---

  /// Rebuilds the branch set from scratch: recomputes every leg of every
  /// branch exactly via `dist`, drops branches that are unreachable or fail
  /// Definition 2, deduplicates by stop sequence, and recomputes the active
  /// branch. Clears stale(). A healthy tree is semantically unchanged; a
  /// corrupted one (e.g. legs poisoned by an injected oracle fault) is
  /// restored in place. Fails iff no valid branch survives.
  Status RebuildBranches(const DistFn& dist);

  /// Test seam for the auditor/fault-injection suites: overwrites one leg
  /// distance so corruption detection has something to find. Because legs
  /// of a shared prefix live once in the arena, corrupting branch b's leg l
  /// also corrupts every sibling branch sharing that node — which is what a
  /// real memory fault would do. CHECKs bounds.
  void CorruptLegForTest(std::size_t branch, std::size_t leg, Distance value);

  // --- Derived data for the grid index. ---

  /// Builds the (cell, edge entry) registrations for every branch edge
  /// <o_x, o_y> including the tail edge. Edges are registered in the cells
  /// of both endpoints; exact duplicates are merged.
  std::vector<std::pair<CellId, KineticEdgeEntry>> BuildRegistration(
      const GridIndex& grid) const;

  // --- Validation (also used heavily by tests). ---

  /// Exhaustively checks Definition 2 for `schedule` given the current
  /// assigned set plus optionally one extra (not yet assigned) request.
  /// All legs must already be exact. Allocation-free (thread-local
  /// scratch), so the per-candidate enumeration path can afford it.
  bool IsValidSchedule(const Schedule& schedule,
                       const AssignedRequest* extra) const;

  /// Detour slack of each insertion gap j (0..stops; gap j sits between
  /// point j and point j+1 of the branch; the last gap is the tail). This
  /// is the paper's o_x.detour. Exposed for tests and registration.
  std::vector<Distance> GapSlacks(const Schedule& schedule) const;

  /// Free seats while traversing each gap j (the paper's o_x.capacity).
  std::vector<int> GapFreeSeats(const Schedule& schedule) const;

  // --- Memory accounting (Table IV / table04_memory). ---

  /// Resident memory of the tree: sizeof(*this) plus the exact heap
  /// footprint of the branch arenas and the assigned list. Matches a
  /// malloc-counting allocator on a freshly copied tree (see
  /// kinetic_memory_test); an idle tree owns zero heap.
  std::size_t MemoryBytes() const;

  struct ArenaStats {
    std::size_t heap_bytes = 0;   ///< MemoryBytes() minus the object shell.
    std::size_t live_nodes = 0;   ///< Reachable stop nodes.
    std::size_t node_slots = 0;   ///< Allocated slots (live + free list).
    std::size_t branches = 0;     ///< num_branches().
  };
  /// Arena occupancy for the memory bench (utilization = live/slots).
  ArenaStats arena_stats() const;

 private:
  void RecomputeActive();
  const AssignedRequest* FindAssigned(RequestId id) const;
  /// Loads `store_` from `schedules` in order (prefix-shared). Branches
  /// must be distinct stop sequences; empty schedules are skipped (the idle
  /// branch is implicit).
  void LoadBranches(const std::vector<Schedule>& schedules);

  /// Enumeration core shared by EnumerateInsertions and Commit; `branch`
  /// is one materialized branch (empty for the idle branch).
  void EnumerateIntoBranch(const Schedule& branch, const Request& request,
                           Distance direct_dist, const DistFn& dist,
                           const InsertionHooks& hooks,
                           std::vector<InsertionCandidate>* out) const;

  VehicleId vehicle_;
  VertexId location_;
  int capacity_;
  std::size_t max_branches_;
  int onboard_ = 0;
  Distance odometer_ = 0.0;
  std::vector<AssignedRequest> assigned_;
  /// Arena-backed prefix tree; empty ⟺ assigned_ empty (idle branch is
  /// implicit, so idle vehicles own zero heap).
  BranchStore store_;
  std::size_t active_index_ = 0;
  bool stale_ = false;
  std::uint64_t branches_dropped_ = 0;
  std::uint64_t cap_hits_ = 0;
};

}  // namespace ptar

#endif  // PTAR_KINETIC_KINETIC_TREE_H_
