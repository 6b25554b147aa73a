#include "rideshare/matcher_internal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/trace.h"
#include "prune/ellipse_prefilter.h"
#include "rideshare/lemmas.h"

namespace ptar::internal {

namespace {

/// Charges the context's budget, on scope exit, `base_units` plus every
/// compdist the oracle performed inside the scope. Work is charged after it
/// completes, so an exhausted budget never truncates an option mid-flight —
/// the matcher observes exhaustion at its next safe-point check.
class BudgetScope {
 public:
  BudgetScope(MatchContext& ctx, std::uint64_t base_units)
      : ctx_(ctx), base_(base_units), before_(ctx.oracle->compdists()) {}
  ~BudgetScope() {
    if (ctx_.budget != nullptr) {
      ctx_.budget->Charge(base_ + (ctx_.oracle->compdists() - before_));
    }
  }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  MatchContext& ctx_;
  std::uint64_t base_;
  std::uint64_t before_;
};

/// Oracle faults surface as infinite distances; an option priced off one
/// would be *wrong*, not merely incomplete, so it must never enter the
/// skyline (the fault still flips the result to complete == false).
bool FiniteOption(const Option& option) {
  return std::isfinite(option.pickup_dist) && std::isfinite(option.price);
}

/// One gap <o_x, o_y> of a vehicle's schedule, as a registered kinetic
/// edge and an insertion position both describe it.
struct Gap {
  VertexId ox = kInvalidVertex;
  VertexId oy = kInvalidVertex;  ///< kInvalidVertex for the tail gap.
  bool tail = false;
  Distance leg = 0.0;      ///< dist(o_x, o_y); 0 for the tail.
  Distance detour = 0.0;   ///< o_x.detour.
  int seats = 0;           ///< o_x.capacity.
  Distance dist_tr = 0.0;  ///< Trip distance from the location to o_x.
};

Gap EntryGap(const KineticEdgeEntry& e) {
  return {e.ox, e.oy, e.tail, e.leg_dist, e.detour, e.capacity, e.dist_tr};
}

// The edge-level lemmas, one copy each. Every predicate takes a lower-bound
// callable ldist(u, v) — the grid's bound or GeoPrune's calibrated-Euclidean
// one — and returns the number of the lemma that prunes, or 0.

/// Lemma 1: the empty vehicle at `location` cannot beat the skyline.
struct EmptyVehicleLemma {
  VertexId location;
  const RequestEnv& env;
  const SkylineSet& skyline;

  template <typename LowerBound>
  int operator()(const LowerBound& ldist) const {
    return lemmas::EmptyVehiclePruned(ldist(location, env.request->start),
                                      skyline.options(), env.fn, env.direct)
               ? 1
               : 0;
  }
};

/// Lemma 5, then Lemma 3: inserting s into `gap` is infeasible, or it
/// cannot beat the skyline.
struct StartGapLemma {
  Gap gap;
  const RequestEnv& env;
  const SkylineSet& skyline;

  template <typename LowerBound>
  int operator()(const LowerBound& ldist) const {
    const VertexId s = env.request->start;
    const Distance l_ox = ldist(s, gap.ox);
    const Distance l_oy = gap.tail ? 0.0 : ldist(s, gap.oy);
    if (lemmas::StartEdgeInfeasible(gap.seats, env.request->riders,
                                    gap.detour, l_ox, l_oy, gap.leg,
                                    gap.tail)) {
      return 5;
    }
    if (!skyline.empty() &&
        lemmas::StartEdgePruned(l_ox, l_oy, gap.leg, gap.tail, gap.dist_tr,
                                skyline.options(), env.fn, env.direct)) {
      return 3;
    }
    return 0;
  }
};

/// Lemma 7, then Lemma 9: inserting d into `gap` is infeasible, or it
/// cannot beat the skyline. Given s's exact placement, Lemma 11 follows
/// with the Definition 7 detour bound, and Lemma 9 is skipped when d
/// targets s's own gap: Lemma 9 models d's predecessor as o_x, which only
/// holds for a later gap (Definition 7 case 1). In the same gap d follows
/// s directly, so dist_tr_ox + ldist(o_x, d) is NOT a lower bound on
/// dist_tr'(c.l, d) — it overshoots by up to dist(o_x, s) — and Lemma 11
/// covers the case instead.
struct DestGapLemma {
  Gap gap;
  const RequestEnv& env;
  const SkylineSet& skyline;
  const DPositionContext* placed = nullptr;  ///< Null before s is placed.

  template <typename LowerBound>
  int operator()(const LowerBound& ldist) const {
    const VertexId d = env.request->destination;
    const Distance l_ox = ldist(d, gap.ox);
    const Distance l_oy = gap.tail ? 0.0 : ldist(d, gap.oy);
    if (lemmas::DestEdgeInfeasible(gap.seats, env.request->riders,
                                   gap.detour, l_ox, l_oy, gap.leg,
                                   gap.tail)) {
      return 7;
    }
    if (skyline.empty()) return 0;
    if ((placed == nullptr || !placed->same_gap) &&
        lemmas::DestEdgePruned(gap.dist_tr, l_ox, l_oy, gap.leg, gap.tail,
                               env.request->epsilon, env.direct,
                               skyline.options(), env.fn)) {
      return 9;
    }
    if (placed != nullptr &&
        lemmas::AfterStartPruned(
            placed->pickup_dist,
            lemmas::DetourLowerBound(placed->same_gap, gap.tail,
                                     placed->dist_ox_s, placed->delta_s,
                                     l_ox, l_oy, gap.leg, env.direct),
            skyline.options(), env.fn, env.direct)) {
      return 11;
    }
    return 0;
  }
};

/// Runs `lemma` on the grid bound, then — only if that did not prune — on
/// GeoPrune's bound; a null bound is skipped. A grid rejection by lemma k
/// counts in stats.lemma_hits[k]; every GeoPrune test counts in
/// ellipse_checked and its rejections in ellipse_pruned. True when either
/// bound pruned.
template <typename Lemma>
bool PrunedOnEitherBound(const GridIndex* grid,
                         const prune::EllipsePrefilter* prune,
                         MatchStats& stats, const Lemma& lemma) {
  if (grid != nullptr) {
    const int k = lemma(
        [grid](VertexId u, VertexId v) { return grid->LowerBound(u, v); });
    if (k != 0) {
      ++stats.lemma_hits[k];
      return true;
    }
  }
  if (prune == nullptr) return false;
  ++stats.ellipse_checked;
  const int k = lemma(
      [prune](VertexId u, VertexId v) { return prune->LowerBound(u, v); });
  if (k == 0) return false;
  ++stats.ellipse_pruned;
  return true;
}

}  // namespace

InsertionHooks MakeInsertionHooks(const RequestEnv& env, const GridIndex* grid,
                                  const prune::EllipsePrefilter* prune,
                                  const SkylineSet& skyline,
                                  MatchStats* stats) {
  InsertionHooks hooks;
  if (!env.pruning.insertion_hooks || (grid == nullptr && prune == nullptr)) {
    return hooks;
  }
  hooks.prune_s = [env, grid, prune, &skyline,
                   stats](const SPositionContext& c) {
    const Gap gap{c.ox, c.oy, c.tail, c.leg_dist, c.detour_slack,
                  c.free_seats, c.dist_tr_ox};
    return PrunedOnEitherBound(grid, prune, *stats,
                               StartGapLemma{gap, env, skyline});
  };
  hooks.prune_d = [env, grid, prune, &skyline,
                   stats](const DPositionContext& c) {
    // The enumerator enforces capacity exactly, so d's gap claims unlimited
    // seats and only Lemma 7's detour clause applies.
    const Gap gap{c.ox, c.oy, c.tail, c.leg_dist, c.detour_slack,
                  std::numeric_limits<int>::max(), c.dist_tr_ox};
    return PrunedOnEitherBound(grid, prune, *stats,
                               DestGapLemma{gap, env, skyline, &c});
  };
  return hooks;
}

void VerifyEmptyVehicle(const KineticTree& tree, const RequestEnv& env,
                        MatchContext& ctx, SkylineSet& skyline,
                        MatchStats& stats) {
  BudgetScope budget(ctx, /*base_units=*/1);
  // GeoPrune: Lemma 1 on the calibrated-Euclidean bound again at
  // verification time, when the skyline is already populated (collection-
  // time checks see an empty skyline for the cells scanned first, which
  // hold exactly the near vehicles worth pruning). Skipping the exact
  // pickup distance is safe because the bound never exceeds it
  // (DESIGN.md §13).
  if (env.pruning.edge_level && !skyline.empty() &&
      PrunedOnEitherBound(nullptr, ctx.prune, stats,
                          EmptyVehicleLemma{tree.location(), env, skyline})) {
    ++stats.pruned_vehicles;
    return;
  }
  ++stats.verified_vehicles;
  if (tree.capacity() < env.request->riders) return;  // group cannot board
  const Distance pickup = ctx.oracle->Dist(tree.location(),
                                           env.request->start);
  if (pickup == kInfDistance) return;  // unreachable vehicle
  Option option;
  option.vehicle = tree.vehicle();
  option.pickup_dist = pickup;
  option.price = ctx.price_model.EmptyVehiclePrice(env.request->riders,
                                                   pickup, env.direct);
  if (FiniteOption(option)) skyline.Insert(option);
}

void VerifyNonEmptyVehicle(const KineticTree& tree, const RequestEnv& env,
                           MatchContext& ctx, const InsertionHooks& hooks,
                           SkylineSet& skyline, MatchStats& stats) {
  BudgetScope budget(ctx, /*base_units=*/1);
  ++stats.verified_vehicles;
  obs::TraceSpan span("verify_insertion");
  span.AddArg("vehicle", tree.vehicle());
  DistanceOracle* oracle = ctx.oracle;
  const Distance base_total = tree.CurrentTotal();
  const std::vector<InsertionCandidate> candidates = tree.EnumerateInsertions(
      *env.request, env.direct,
      [oracle](VertexId a, VertexId b) { return oracle->Dist(a, b); }, hooks);
  span.AddArg("candidates", static_cast<std::int64_t>(candidates.size()));
  for (const InsertionCandidate& cand : candidates) {
    Option option;
    option.vehicle = tree.vehicle();
    option.pickup_dist = cand.pickup_dist;
    option.price = ctx.price_model.Price(
        env.request->riders, cand.total_dist - base_total, env.direct);
    if (FiniteOption(option)) skyline.Insert(option);
  }
}

std::size_t AppendBoardableEmpties(CellId cell, const RequestEnv& env,
                                   const MatchContext& ctx,
                                   std::span<const char> emitted,
                                   std::vector<VehicleId>* out) {
  std::size_t capacity_skipped = 0;
  for (const VehicleId v : ctx.registry->EmptyVehicles(cell)) {
    if (!emitted.empty() && emitted[v]) continue;
    // Capacity constraint (Definition 2): skip vehicles the group cannot
    // board at all.
    if ((*ctx.fleet)[v].capacity() < env.request->riders) {
      ++capacity_skipped;
      continue;
    }
    out->push_back(v);
  }
  return capacity_skipped;
}

void OrderEmptiesForVerification(const RequestEnv& env,
                                 const MatchContext& ctx,
                                 std::vector<VehicleId>* candidates) {
  if (ctx.prune == nullptr || candidates->size() < 2) return;
  const VertexId s = env.request->start;
  // Key once per candidate (hypot is not free at 10k vehicles), then a
  // stable sort so equal bounds keep their enumeration order — ordering
  // stays deterministic across platforms.
  thread_local std::vector<std::pair<double, VehicleId>> keyed;
  keyed.clear();
  keyed.reserve(candidates->size());
  for (const VehicleId v : *candidates) {
    keyed.emplace_back(ctx.prune->LowerBound((*ctx.fleet)[v].location(), s),
                       v);
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  candidates->clear();
  for (const auto& [bound, v] : keyed) candidates->push_back(v);
}

void CollectEmptyCandidates(CellId cell, const RequestEnv& env,
                            MatchContext& ctx, const SkylineSet& skyline,
                            std::vector<char>& emitted, MatchStats& stats,
                            std::vector<VehicleId>* out) {
  const std::span<const VehicleId> list = ctx.registry->EmptyVehicles(cell);
  if (list.empty()) return;
  const VertexId s = env.request->start;
  // Lemma 2: prune the whole empty-vehicle list of the cell.
  if (env.pruning.cell_level && !skyline.empty() &&
      lemmas::EmptyCellPruned(ctx.grid->LowerBoundToCell(s, cell),
                              skyline.options(), env.fn, env.direct)) {
    ++stats.pruned_cells;
    ++stats.lemma_hits[2];
    return;
  }
  thread_local std::vector<VehicleId> boardable;
  boardable.clear();
  stats.pruned_vehicles +=
      AppendBoardableEmpties(cell, env, ctx, emitted, &boardable);
  for (const VehicleId v : boardable) {
    // Lemma 1, per vehicle: on the grid bound, then on GeoPrune's, which is
    // per-pair tight where the grid bound collapses to zero (same cell).
    if (env.pruning.edge_level && !skyline.empty() &&
        PrunedOnEitherBound(
            ctx.grid, ctx.prune, stats,
            EmptyVehicleLemma{(*ctx.fleet)[v].location(), env, skyline})) {
      ++stats.pruned_vehicles;
      continue;
    }
    emitted[v] = 1;
    out->push_back(v);
  }
}

void CollectStartCandidates(CellId cell, const RequestEnv& env,
                            MatchContext& ctx, const SkylineSet& skyline,
                            std::vector<char>& emitted, MatchStats& stats,
                            std::vector<VehicleId>* out) {
  const CellAggregates& agg = ctx.registry->Aggregates(cell);
  if (!agg.any) return;
  const VertexId s = env.request->start;
  const int riders = env.request->riders;
  const Distance ldist_s_g = ctx.grid->LowerBoundToCell(s, cell);
  // Lemma 6: capacity / detour over the whole cell.
  if (env.pruning.cell_level &&
      lemmas::StartCellInfeasible(agg.max_capacity, riders, agg.max_detour,
                                  ldist_s_g, agg.max_leg_dist)) {
    ++stats.pruned_cells;
    ++stats.lemma_hits[6];
    return;
  }
  // Lemma 4: dominance over the whole cell.
  if (env.pruning.cell_level && !skyline.empty() &&
      lemmas::StartCellPruned(ldist_s_g, agg.min_dist_tr, agg.max_leg_dist,
                              agg.has_tail, skyline.options(), env.fn,
                              env.direct)) {
    ++stats.pruned_cells;
    ++stats.lemma_hits[4];
    return;
  }
  for (const KineticEdgeEntry& entry : ctx.registry->NonEmptyEntries(cell)) {
    if (emitted[entry.vehicle]) continue;
    // Lemmas 5 and 3. On GeoPrune's bound the feasibility clause is
    // containment of s in the detour ellipse with foci o_x, o_y.
    if (env.pruning.edge_level &&
        PrunedOnEitherBound(ctx.grid, ctx.prune, stats,
                            StartGapLemma{EntryGap(entry), env, skyline})) {
      ++stats.pruned_vehicles;
      continue;
    }
    emitted[entry.vehicle] = 1;
    out->push_back(entry.vehicle);
  }
}

void CollectDestCandidates(CellId cell, const RequestEnv& env,
                           MatchContext& ctx, const SkylineSet& skyline,
                           std::vector<char>& emitted, MatchStats& stats,
                           std::vector<VehicleId>* out) {
  const CellAggregates& agg = ctx.registry->Aggregates(cell);
  if (!agg.any) return;
  const VertexId d = env.request->destination;
  const int riders = env.request->riders;
  const double epsilon = env.request->epsilon;
  const Distance ldist_d_g = ctx.grid->LowerBoundToCell(d, cell);
  // Lemma 8.
  if (env.pruning.cell_level &&
      lemmas::DestCellInfeasible(agg.max_capacity, riders, agg.max_detour,
                                 ldist_d_g, agg.max_leg_dist)) {
    ++stats.pruned_cells;
    ++stats.lemma_hits[8];
    return;
  }
  // Lemma 10.
  if (env.pruning.cell_level && !skyline.empty() &&
      lemmas::DestCellPruned(ldist_d_g, agg.min_dist_tr, agg.max_leg_dist,
                             agg.has_tail, epsilon, env.direct,
                             skyline.options(), env.fn)) {
    ++stats.pruned_cells;
    ++stats.lemma_hits[10];
    return;
  }
  for (const KineticEdgeEntry& entry : ctx.registry->NonEmptyEntries(cell)) {
    if (emitted[entry.vehicle]) continue;
    // Lemmas 7 and 9.
    if (env.pruning.edge_level &&
        PrunedOnEitherBound(ctx.grid, ctx.prune, stats,
                            DestGapLemma{EntryGap(entry), env, skyline})) {
      ++stats.pruned_vehicles;
      continue;
    }
    emitted[entry.vehicle] = 1;
    out->push_back(entry.vehicle);
  }
}

std::size_t VerifiedCellLimit(std::size_t num_cells, double fraction) {
  if (num_cells == 0) return 0;
  const double raw = fraction * static_cast<double>(num_cells);
  auto limit = static_cast<std::size_t>(raw + 0.999999);
  return std::clamp<std::size_t>(limit, 1, num_cells);
}

}  // namespace ptar::internal
