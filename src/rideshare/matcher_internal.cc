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

}  // namespace

KineticTree::DistFn OracleDistFn(MatchContext& ctx) {
  DistanceOracle* oracle = ctx.oracle;
  return [oracle](VertexId a, VertexId b) { return oracle->Dist(a, b); };
}

InsertionHooks MakeLemmaHooks(const RequestEnv& env, const GridIndex& grid,
                              const SkylineSet& skyline,
                              LemmaCounters* counters) {
  InsertionHooks hooks;
  if (!env.pruning.insertion_hooks) return hooks;
  const Request* request = env.request;
  const Distance direct = env.direct;
  const double fn = env.fn;

  hooks.prune_s = [request, direct, fn, &grid, &skyline,
                   counters](const SPositionContext& c) {
    const VertexId s = request->start;
    const Distance l_ox = grid.LowerBound(s, c.ox);
    const Distance l_oy = c.tail ? 0.0 : grid.LowerBound(s, c.oy);
    if (lemmas::StartEdgeInfeasible(c.free_seats, request->riders,
                                    c.detour_slack, l_ox, l_oy, c.leg_dist,
                                    c.tail)) {
      ++(*counters)[5];
      return true;  // Lemma 5
    }
    if (!skyline.empty() &&
        lemmas::StartEdgePruned(l_ox, l_oy, c.leg_dist, c.tail, c.dist_tr_ox,
                                skyline.options(), fn, direct)) {
      ++(*counters)[3];
      return true;  // Lemma 3
    }
    return false;
  };

  hooks.prune_d = [request, direct, fn, &grid, &skyline,
                   counters](const DPositionContext& c) {
    const VertexId d = request->destination;
    const Distance l_ox = grid.LowerBound(d, c.ox);
    const Distance l_oy = c.tail ? 0.0 : grid.LowerBound(d, c.oy);
    // Lemma 7 (capacity is enforced exactly by the enumerator, so only the
    // detour clause applies here).
    if (lemmas::DestEdgeInfeasible(std::numeric_limits<int>::max(),
                                   request->riders, c.detour_slack, l_ox,
                                   l_oy, c.leg_dist, c.tail)) {
      ++(*counters)[7];
      return true;
    }
    if (!skyline.empty()) {
      // Lemma 9 models d's predecessor as o_x, which only holds when d
      // targets a later gap than s (Definition 7 case 1). In the same gap
      // d follows s directly, so dist_tr_ox + ldist(o_x, d) is NOT a lower
      // bound on dist_tr'(c.l, d) — it overshoots by up to dist(o_x, s) —
      // and the Definition 7 bound below covers the case instead.
      if (!c.same_gap &&
          lemmas::DestEdgePruned(c.dist_tr_ox, l_ox, l_oy, c.leg_dist,
                                 c.tail, request->epsilon, direct,
                                 skyline.options(), fn)) {
        ++(*counters)[9];
        return true;
      }
      // Lemma 11 with the Definition 7 detour lower bound.
      const Distance detour_lb = lemmas::DetourLowerBound(
          c.same_gap, c.tail, c.dist_ox_s, c.delta_s, l_ox, l_oy, c.leg_dist,
          direct);
      if (lemmas::AfterStartPruned(c.pickup_dist, detour_lb,
                                   skyline.options(), fn, direct)) {
        ++(*counters)[11];
        return true;
      }
    }
    return false;
  };

  return hooks;
}

InsertionHooks MakeEllipseHooks(const RequestEnv& env,
                                const prune::EllipsePrefilter& prefilter,
                                const SkylineSet& skyline, MatchStats* stats) {
  InsertionHooks hooks;
  if (!env.pruning.insertion_hooks) return hooks;
  const Request* request = env.request;
  const Distance direct = env.direct;
  const double fn = env.fn;
  const prune::EllipsePrefilter* filter = &prefilter;

  hooks.prune_s = [request, direct, fn, filter, &skyline,
                   stats](const SPositionContext& c) {
    const VertexId s = request->start;
    ++stats->ellipse_checked;
    const Distance l_ox = filter->LowerBound(s, c.ox);
    const Distance l_oy = c.tail ? 0.0 : filter->LowerBound(s, c.oy);
    // Lemma 5 analog: s outside the feasibility ellipse with foci o_x, o_y
    // and focal-sum bound leg_dist + detour_slack.
    if (lemmas::StartEdgeInfeasible(c.free_seats, request->riders,
                                    c.detour_slack, l_ox, l_oy, c.leg_dist,
                                    c.tail)) {
      ++stats->ellipse_pruned;
      return true;
    }
    if (!skyline.empty() &&
        lemmas::StartEdgePruned(l_ox, l_oy, c.leg_dist, c.tail, c.dist_tr_ox,
                                skyline.options(), fn, direct)) {
      ++stats->ellipse_pruned;
      return true;  // Lemma 3 analog
    }
    return false;
  };

  hooks.prune_d = [request, direct, fn, filter, &skyline,
                   stats](const DPositionContext& c) {
    const VertexId d = request->destination;
    ++stats->ellipse_checked;
    const Distance l_ox = filter->LowerBound(d, c.ox);
    const Distance l_oy = c.tail ? 0.0 : filter->LowerBound(d, c.oy);
    // Lemma 7 analog (capacity is enforced exactly by the enumerator).
    if (lemmas::DestEdgeInfeasible(std::numeric_limits<int>::max(),
                                   request->riders, c.detour_slack, l_ox,
                                   l_oy, c.leg_dist, c.tail)) {
      ++stats->ellipse_pruned;
      return true;
    }
    if (!skyline.empty()) {
      // Same-gap guard as in MakeLemmaHooks: the Lemma 9 model of d's
      // predecessor as o_x only holds when d targets a later gap than s.
      if (!c.same_gap &&
          lemmas::DestEdgePruned(c.dist_tr_ox, l_ox, l_oy, c.leg_dist,
                                 c.tail, request->epsilon, direct,
                                 skyline.options(), fn)) {
        ++stats->ellipse_pruned;
        return true;
      }
      const Distance detour_lb = lemmas::DetourLowerBound(
          c.same_gap, c.tail, c.dist_ox_s, c.delta_s, l_ox, l_oy, c.leg_dist,
          direct);
      if (lemmas::AfterStartPruned(c.pickup_dist, detour_lb,
                                   skyline.options(), fn, direct)) {
        ++stats->ellipse_pruned;
        return true;  // Lemma 11 analog
      }
    }
    return false;
  };

  return hooks;
}

InsertionHooks CombineHooks(InsertionHooks first, InsertionHooks second) {
  InsertionHooks out;
  if (!first.prune_s) {
    out.prune_s = std::move(second.prune_s);
  } else if (!second.prune_s) {
    out.prune_s = std::move(first.prune_s);
  } else {
    out.prune_s = [a = std::move(first.prune_s), b = std::move(second.prune_s)](
                      const SPositionContext& c) { return a(c) || b(c); };
  }
  if (!first.prune_d) {
    out.prune_d = std::move(second.prune_d);
  } else if (!second.prune_d) {
    out.prune_d = std::move(first.prune_d);
  } else {
    out.prune_d = [a = std::move(first.prune_d), b = std::move(second.prune_d)](
                      const DPositionContext& c) { return a(c) || b(c); };
  }
  return out;
}

InsertionHooks MakeContextHooks(const RequestEnv& env, MatchContext& ctx,
                                const SkylineSet& skyline, MatchStats* stats) {
  InsertionHooks hooks =
      MakeLemmaHooks(env, *ctx.grid, skyline, &stats->lemma_hits);
  if (ctx.prune != nullptr) {
    hooks = CombineHooks(std::move(hooks),
                         MakeEllipseHooks(env, *ctx.prune, skyline, stats));
  }
  return hooks;
}

void VerifyEmptyVehicle(KineticTree& tree, const RequestEnv& env,
                        MatchContext& ctx, SkylineSet& skyline,
                        MatchStats& stats) {
  BudgetScope budget(ctx, /*base_units=*/1);
  // GeoPrune: the Lemma 1 dominance bound on the calibrated-Euclidean
  // distance, evaluated at verification time when the skyline is already
  // populated (collection-time checks see an empty skyline for the cells
  // scanned first, which hold exactly the near vehicles worth pruning).
  // Skipping the exact pickup distance is safe because the bound never
  // exceeds it (DESIGN.md §13).
  if (ctx.prune != nullptr && env.pruning.edge_level && !skyline.empty()) {
    ++stats.ellipse_checked;
    if (lemmas::EmptyVehiclePruned(
            ctx.prune->LowerBound(tree.location(), env.request->start),
            skyline.options(), env.fn, env.direct)) {
      ++stats.ellipse_pruned;
      ++stats.pruned_vehicles;
      return;
    }
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

void VerifyNonEmptyVehicle(KineticTree& tree, const RequestEnv& env,
                           MatchContext& ctx, const InsertionHooks& hooks,
                           SkylineSet& skyline, MatchStats& stats) {
  BudgetScope budget(ctx, /*base_units=*/1);
  ++stats.verified_vehicles;
  obs::TraceSpan span("verify_insertion");
  span.AddArg("vehicle", tree.vehicle());
  const KineticTree::DistFn dist = OracleDistFn(ctx);
  tree.Refresh(dist);
  const Distance base_total = tree.CurrentTotal();
  const std::vector<InsertionCandidate> candidates =
      tree.EnumerateInsertions(*env.request, env.direct, dist, hooks);
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
  for (const VehicleId v : ctx.snapshot->EmptyVehicles(cell)) {
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
  const std::span<const VehicleId> list = ctx.snapshot->EmptyVehicles(cell);
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
    const KineticTree& tree = (*ctx.fleet)[v];
    // Lemma 1, per vehicle.
    if (env.pruning.edge_level && !skyline.empty() &&
        lemmas::EmptyVehiclePruned(ctx.grid->LowerBound(tree.location(), s),
                                   skyline.options(), env.fn, env.direct)) {
      ++stats.pruned_vehicles;
      ++stats.lemma_hits[1];
      continue;
    }
    // GeoPrune: Lemma 1 again on the calibrated-Euclidean bound, which is
    // per-pair tight where the grid bound collapses to zero (same cell).
    if (ctx.prune != nullptr && env.pruning.edge_level && !skyline.empty()) {
      ++stats.ellipse_checked;
      if (lemmas::EmptyVehiclePruned(
              ctx.prune->LowerBound(tree.location(), s), skyline.options(),
              env.fn, env.direct)) {
        ++stats.ellipse_pruned;
        ++stats.pruned_vehicles;
        continue;
      }
    }
    emitted[v] = 1;
    out->push_back(v);
  }
}

void CollectStartCandidates(CellId cell, const RequestEnv& env,
                            MatchContext& ctx, const SkylineSet& skyline,
                            std::vector<char>& emitted, MatchStats& stats,
                            std::vector<VehicleId>* out) {
  const CellAggregates& agg = ctx.snapshot->Aggregates(cell);
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
  for (const KineticEdgeEntry& entry : ctx.snapshot->NonEmptyEntries(cell)) {
    if (emitted[entry.vehicle]) continue;
    const Distance l_ox = ctx.grid->LowerBound(s, entry.ox);
    const Distance l_oy =
        entry.tail ? 0.0 : ctx.grid->LowerBound(s, entry.oy);
    // Lemma 5.
    if (env.pruning.edge_level &&
        lemmas::StartEdgeInfeasible(entry.capacity, riders, entry.detour,
                                    l_ox, l_oy, entry.leg_dist, entry.tail)) {
      ++stats.pruned_vehicles;
      ++stats.lemma_hits[5];
      continue;
    }
    // Lemma 3.
    if (env.pruning.edge_level && !skyline.empty() &&
        lemmas::StartEdgePruned(l_ox, l_oy, entry.leg_dist, entry.tail,
                                entry.dist_tr, skyline.options(), env.fn,
                                env.direct)) {
      ++stats.pruned_vehicles;
      ++stats.lemma_hits[3];
      continue;
    }
    // GeoPrune: Lemmas 5 and 3 on the calibrated-Euclidean bounds — the
    // feasibility clause is containment of s in the detour ellipse with
    // foci o_x, o_y.
    if (ctx.prune != nullptr && env.pruning.edge_level) {
      ++stats.ellipse_checked;
      const Distance e_ox = ctx.prune->LowerBound(s, entry.ox);
      const Distance e_oy =
          entry.tail ? 0.0 : ctx.prune->LowerBound(s, entry.oy);
      if (lemmas::StartEdgeInfeasible(entry.capacity, riders, entry.detour,
                                      e_ox, e_oy, entry.leg_dist,
                                      entry.tail)) {
        ++stats.ellipse_pruned;
        ++stats.pruned_vehicles;
        continue;
      }
      if (!skyline.empty() &&
          lemmas::StartEdgePruned(e_ox, e_oy, entry.leg_dist, entry.tail,
                                  entry.dist_tr, skyline.options(), env.fn,
                                  env.direct)) {
        ++stats.ellipse_pruned;
        ++stats.pruned_vehicles;
        continue;
      }
    }
    emitted[entry.vehicle] = 1;
    out->push_back(entry.vehicle);
  }
}

void CollectDestCandidates(CellId cell, const RequestEnv& env,
                           MatchContext& ctx, const SkylineSet& skyline,
                           std::vector<char>& emitted, MatchStats& stats,
                           std::vector<VehicleId>* out) {
  const CellAggregates& agg = ctx.snapshot->Aggregates(cell);
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
  for (const KineticEdgeEntry& entry : ctx.snapshot->NonEmptyEntries(cell)) {
    if (emitted[entry.vehicle]) continue;
    const Distance l_ox = ctx.grid->LowerBound(d, entry.ox);
    const Distance l_oy =
        entry.tail ? 0.0 : ctx.grid->LowerBound(d, entry.oy);
    // Lemma 7.
    if (env.pruning.edge_level &&
        lemmas::DestEdgeInfeasible(entry.capacity, riders, entry.detour,
                                   l_ox, l_oy, entry.leg_dist, entry.tail)) {
      ++stats.pruned_vehicles;
      ++stats.lemma_hits[7];
      continue;
    }
    // Lemma 9.
    if (env.pruning.edge_level && !skyline.empty() &&
        lemmas::DestEdgePruned(entry.dist_tr, l_ox, l_oy, entry.leg_dist,
                               entry.tail, epsilon, env.direct,
                               skyline.options(), env.fn)) {
      ++stats.pruned_vehicles;
      ++stats.lemma_hits[9];
      continue;
    }
    // GeoPrune: Lemmas 7 and 9 on the calibrated-Euclidean bounds.
    if (ctx.prune != nullptr && env.pruning.edge_level) {
      ++stats.ellipse_checked;
      const Distance e_ox = ctx.prune->LowerBound(d, entry.ox);
      const Distance e_oy =
          entry.tail ? 0.0 : ctx.prune->LowerBound(d, entry.oy);
      if (lemmas::DestEdgeInfeasible(entry.capacity, riders, entry.detour,
                                     e_ox, e_oy, entry.leg_dist,
                                     entry.tail)) {
        ++stats.ellipse_pruned;
        ++stats.pruned_vehicles;
        continue;
      }
      if (!skyline.empty() &&
          lemmas::DestEdgePruned(entry.dist_tr, e_ox, e_oy, entry.leg_dist,
                                 entry.tail, epsilon, env.direct,
                                 skyline.options(), env.fn)) {
        ++stats.ellipse_pruned;
        ++stats.pruned_vehicles;
        continue;
      }
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
