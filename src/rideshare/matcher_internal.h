// Shared machinery for the three matching algorithms: vehicle verification
// (Algorithm 4, find_result) and the lemma-based insertion hooks.

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

/// Exact distance callback bound to the context's oracle.
KineticTree::DistFn OracleDistFn(MatchContext& ctx);

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

/// Builds insertion hooks that evaluate Lemmas 3/5 (s side) and
/// 7/9/11 + Def. 7 (d side) against the evolving skyline. Returns null
/// hooks (full enumeration) when env.pruning.insertion_hooks is off. The
/// references (including `counters`, which may not be null) must outlive
/// the returned hooks.
InsertionHooks MakeLemmaHooks(const RequestEnv& env, const GridIndex& grid,
                              const SkylineSet& skyline,
                              LemmaCounters* counters);

/// GeoPrune insertion hooks: the same s-side (Lemmas 3/5) and d-side
/// (Lemmas 7/9/11 + Def. 7) predicates evaluated on the prefilter's
/// calibrated-Euclidean lower bounds instead of the grid bounds — including
/// the same-gap guard on the Lemma 9 analog. Rejections are counted into
/// stats->ellipse_checked / ellipse_pruned (not lemma_hits, which stays
/// grid-bound attribution). Used standalone by BA-style matchers under
/// --prune=ellipse and composed with the grid hooks elsewhere.
InsertionHooks MakeEllipseHooks(const RequestEnv& env,
                                const prune::EllipsePrefilter& prefilter,
                                const SkylineSet& skyline, MatchStats* stats);

/// Chains two hook sets: `first` is consulted before `second`, short-
/// circuiting on the first rejection. Null members pass through.
InsertionHooks CombineHooks(InsertionHooks first, InsertionHooks second);

/// The insertion hooks a grid matcher should use for this context: the
/// lemma hooks, chained with the GeoPrune hooks when ctx.prune is set.
InsertionHooks MakeContextHooks(const RequestEnv& env, MatchContext& ctx,
                                const SkylineSet& skyline, MatchStats* stats);

/// Verifies one empty vehicle: computes its single option exactly and
/// inserts it (Algorithm 4, lines 1-2).
void VerifyEmptyVehicle(KineticTree& tree, const RequestEnv& env,
                        MatchContext& ctx, SkylineSet& skyline,
                        MatchStats& stats);

/// Verifies one non-empty vehicle: kinetic-tree insertion with the given
/// hooks, one option per surviving candidate (Algorithm 4, lines 3-4).
void VerifyNonEmptyVehicle(KineticTree& tree, const RequestEnv& env,
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
