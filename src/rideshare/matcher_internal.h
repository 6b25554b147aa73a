// Shared machinery for the three matching algorithms: candidate collection
// (Algorithms 2 and 3, and Algorithm 5's d side), vehicle verification
// (Algorithm 4, find_result) and the insertion hooks. Each edge-level lemma
// has one copy in matcher_internal.cc, run on the grid's lower bound and
// then on GeoPrune's (DESIGN.md §13).

#ifndef PTAR_RIDESHARE_MATCHER_INTERNAL_H_
#define PTAR_RIDESHARE_MATCHER_INTERNAL_H_

#include <span>

#include "kinetic/kinetic_tree.h"
#include "rideshare/matcher.h"
#include "rideshare/skyline.h"

namespace ptar::internal {

/// Bundle of per-request quantities threaded through verification.
struct RequestEnv {
  const Request* request = nullptr;
  Distance direct = 0.0;  ///< dist(s, d).
  double fn = 0.0;        ///< Price ratio f_n.
  PruningConfig pruning;  ///< Which lemma families are active.
};

/// True when the context carries a work budget and it is spent. Matchers
/// call this only at safe points — between cells and between vehicle
/// verifications — so stopping never leaves a half-verified option behind.
inline bool BudgetExhausted(MatchContext& ctx) {
  return ctx.budget != nullptr && ctx.budget->Exhausted();
}

/// Charges `units` deterministic work units (no-op without a budget).
inline void ChargeBudget(MatchContext& ctx, std::uint64_t units) {
  if (ctx.budget != nullptr) ctx.budget->Charge(units);
}

/// Insertion hooks that evaluate Lemmas 5 and 3 at each s position and
/// Lemmas 7, 9 and 11 (with Definition 7) at each d position against the
/// evolving skyline: on `grid`'s bound first, then on `prune`'s
/// calibrated-Euclidean bound. A null bound is skipped — BA passes no grid.
/// Grid rejections count in stats->lemma_hits, GeoPrune's in
/// ellipse_checked / ellipse_pruned. Null hooks (full enumeration) when
/// env.pruning.insertion_hooks is off or both bounds are null. `skyline`
/// and `stats` must outlive the hooks.
InsertionHooks MakeInsertionHooks(const RequestEnv& env, const GridIndex* grid,
                                  const prune::EllipsePrefilter* prune,
                                  const SkylineSet& skyline, MatchStats* stats);

/// Verifies one empty vehicle: computes its single option exactly and
/// inserts it (Algorithm 4, lines 1-2). Under GeoPrune, Lemma 1 on the
/// calibrated bound may prune it first.
void VerifyEmptyVehicle(const KineticTree& tree, const RequestEnv& env,
                        MatchContext& ctx, SkylineSet& skyline,
                        MatchStats& stats);

/// Verifies one non-empty vehicle: kinetic-tree insertion with the given
/// hooks, one option per surviving candidate (Algorithm 4, lines 3-4). The
/// tree must be fresh (the engine refreshes stale trees before a match
/// round); a stale one stops at EnumerateInsertions' CHECK.
void VerifyNonEmptyVehicle(const KineticTree& tree, const RequestEnv& env,
                           MatchContext& ctx, const InsertionHooks& hooks,
                           SkylineSet& skyline, MatchStats& stats);

/// The single candidate-enumeration step shared by CollectEmptyCandidates
/// and GridScanMatcher: appends the cell's empty vehicles that can board
/// the group (capacity filter only, no skyline pruning), skipping vehicles
/// marked in `emitted` (pass an empty span for no dedup). Returns the
/// number skipped for capacity, which Algorithm 2 counts as pruned and the
/// grid-scan ladder does not. Sharing this enumeration pins ladder
/// fallbacks and pruned matchers to the same base candidate set
/// (prune_test holds the regression).
std::size_t AppendBoardableEmpties(CellId cell, const RequestEnv& env,
                                   const MatchContext& ctx,
                                   std::span<const char> emitted,
                                   std::vector<VehicleId>* out);

/// When the GeoPrune prefilter is active, stably reorders an empty-vehicle
/// candidate batch by ascending prefilter pickup lower bound. Verifying the
/// tightest-bound candidate first seeds the skyline with the strongest
/// empty-vehicle option, which lets the verify-time GeoPrune dominance
/// check inside VerifyEmptyVehicle reject most of the remaining batch.
/// Ordering never changes the final skyline: each verification computes the
/// same option regardless of position, and pruning removes only dominated
/// candidates. No-op without a prefilter, so unpruned runs keep their
/// original verification order.
void OrderEmptiesForVerification(const RequestEnv& env,
                                 const MatchContext& ctx,
                                 std::vector<VehicleId>* candidates);

/// Algorithm 2 (find_empty_vehicle): appends the cell's empty vehicles that
/// survive Lemmas 1 and 2. `emitted[v]` marks vehicles already produced and
/// is updated for every appended vehicle.
void CollectEmptyCandidates(CellId cell, const RequestEnv& env,
                            MatchContext& ctx, const SkylineSet& skyline,
                            std::vector<char>& emitted, MatchStats& stats,
                            std::vector<VehicleId>* out);

/// Algorithm 3 (find_nonempty_vehicle): appends non-empty vehicles with at
/// least one registered edge in the cell surviving Lemmas 3-6.
void CollectStartCandidates(CellId cell, const RequestEnv& env,
                            MatchContext& ctx, const SkylineSet& skyline,
                            std::vector<char>& emitted, MatchStats& stats,
                            std::vector<VehicleId>* out);

/// Algorithm 5's find_nonempty_vehicle_Dest: destination-side filtering via
/// Lemmas 7-10.
void CollectDestCandidates(CellId cell, const RequestEnv& env,
                           MatchContext& ctx, const SkylineSet& skyline,
                           std::vector<char>& emitted, MatchStats& stats,
                           std::vector<VehicleId>* out);

/// Number of cells a partial-grid search visits for the configured fraction
/// (paper Section VII.A, "number of verified grids"): at least one, at most
/// all.
std::size_t VerifiedCellLimit(std::size_t num_cells, double fraction);

}  // namespace ptar::internal

#endif  // PTAR_RIDESHARE_MATCHER_INTERNAL_H_
