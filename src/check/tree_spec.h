// Definition-2 spec oracle for the kinetic tree. KineticTree claims to hold
// c.S_tr (paper Sec. IV.B): every ordering of a vehicle's unfinished stops
// that passes Definition 2. EnumerateValidOrderings enumerates those
// orderings by brute force over a vehicle model the caller keeps from its
// own inputs; it implements the four constraints itself and calls none of
// the tree's validation, slack or insertion routines. RunTreeSpec
// (ptar_check --tree_spec=N) compares a tree with it after every op of a
// seeded op stream.
//
// The tree accepts a constraint within kSpecTolerance, so an ordering whose
// smallest slack lies within +-kSpecTolerance may go either way; such
// orderings are counted as borderline, never reported.

#ifndef PTAR_CHECK_TREE_SPEC_H_
#define PTAR_CHECK_TREE_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/distance_oracle.h"
#include "kinetic/kinetic_tree.h"

namespace ptar::check {

inline constexpr Distance kSpecTolerance = 1e-6;

/// The vehicle as the spec sees it, built from the caller's own inputs
/// (start, capacity, committed requests, driven hops, served stops).
struct SpecVehicle {
  VertexId location = kInvalidVertex;
  Distance odometer = 0.0;
  int onboard = 0;
  int capacity = 1;
  std::vector<AssignedRequest> assigned;  ///< In assignment order.
};

/// One ordering that passes Definition 2: its stops with legs from the
/// caller's distance function, and the smallest slack over its waiting and
/// service constraints (kInfDistance when none binds).
struct SpecOrdering {
  Schedule schedule;
  Distance slack = kInfDistance;
};

/// Every ordering of `vehicle`'s unfinished stops, plus `extra`'s pickup
/// and dropoff when non-null, that never exceeds the capacity, places each
/// pickup before its dropoff, and keeps every slack >= -kSpecTolerance.
/// Sorted by stop sequence, stops ordered by (request id, pickup first).
/// An idle vehicle has exactly one, empty, ordering.
std::vector<SpecOrdering> EnumerateValidOrderings(
    const SpecVehicle& vehicle, const AssignedRequest* extra,
    const KineticTree::DistFn& dist);

enum class SpecRule {
  /// Every branch is an ordering and every ordering with slack above
  /// kSpecTolerance is a branch: the tree holds exactly c.S_tr.
  kEqual,
  /// Every branch is an ordering: a capped tree after it dropped branches.
  kSubset,
};

/// Compares `branches` (in any order) with `orderings` under `rule`: stop
/// sequences exact, legs within kSpecTolerance, no duplicates. Returns the
/// first mismatch, or "" when they agree. Adds the borderline orderings to
/// `*borderline`.
std::string CompareWithSpec(const std::vector<Schedule>& branches,
                            const std::vector<SpecOrdering>& orderings,
                            SpecRule rule, std::uint64_t* borderline);

/// Aggregated result of spec runs; `findings` has one line per divergence
/// with its seed, cap and op index.
struct TreeSpecOutcome {
  std::uint64_t ops = 0;  ///< Ops, commits and arrivals: uncapped runs.
  std::uint64_t commits = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t divergences = 0;
  std::uint64_t borderline = 0;  ///< Summed over every comparison.
  /// Requests the enumeration could serve but a capped tree that had
  /// dropped branches offered nothing for.
  std::uint64_t capped_losses = 0;
  std::uint64_t capped_drops = 0;  ///< Capped trees' branches_dropped().
  std::vector<std::string> findings;

  bool ok() const { return divergences == 0; }
  void Fold(const TreeSpecOutcome& other);
};

/// Runs seed `seed`'s op stream on a generated city: 160 ops drawn
/// 40/30/10/10/10 as commit/move/arrive/refresh/rebuild, at most 6 assigned
/// requests. With `cap > 0` the seed runs again on a tree with
/// max_branches = cap that drives its own active branch: the equality rule
/// until its first drop, the subset rule after, and every unserved request
/// attributed to its drops.
TreeSpecOutcome RunTreeSpec(std::uint64_t seed, DistanceBackend backend,
                            std::size_t cap);

}  // namespace ptar::check

#endif  // PTAR_CHECK_TREE_SPEC_H_
