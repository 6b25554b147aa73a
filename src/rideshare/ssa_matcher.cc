#include "rideshare/ssa_matcher.h"

#include "common/timer.h"
#include "obs/trace.h"
#include "rideshare/matcher_internal.h"
#include "rideshare/skyline.h"

namespace ptar {

MatchResult SsaMatcher::Match(const Request& request, MatchContext& ctx) {
  Timer timer;
  ctx.oracle->BeginRequest(request.start, request.destination);
  ctx.oracle->ResetStats();

  internal::RequestEnv env;
  env.request = &request;
  env.direct = ctx.oracle->Dist(request.start, request.destination);
  env.fn = ctx.price_model.Ratio(request.riders);
  env.pruning = pruning_;

  SkylineSet skyline;
  MatchStats stats;
  std::vector<char> emitted(ctx.fleet->size(), 0);
  const InsertionHooks hooks =
      internal::MakeInsertionHooks(env, ctx.grid, ctx.prune, skyline, &stats);

  const CellId start_cell = ctx.grid->CellOfVertex(request.start);
  const std::span<const CellId> cells =
      ctx.grid->CellsByDistance(start_cell);
  const std::size_t limit =
      internal::VerifiedCellLimit(cells.size(), fraction_);

  bool complete = true;
  std::vector<VehicleId> empty_candidates;
  std::vector<VehicleId> nonempty_candidates;
  for (std::size_t i = 0; i < limit; ++i) {
    if (internal::BudgetExhausted(ctx)) {
      complete = false;
      break;
    }
    const CellId cell = cells[i];
    obs::TraceSpan cell_span("expand_cell");
    cell_span.AddArg("cell", cell);
    ++stats.scanned_cells;
    internal::ChargeBudget(ctx, 1);
    empty_candidates.clear();
    nonempty_candidates.clear();
    {
      // Cell expansion + lemma pruning (Algorithms 2-3).
      PTAR_TRACE_SPAN("collect");
      internal::CollectEmptyCandidates(cell, env, ctx, skyline, emitted,
                                       stats, &empty_candidates);
      internal::CollectStartCandidates(cell, env, ctx, skyline, emitted,
                                       stats, &nonempty_candidates);
    }
    cell_span.AddArg("candidates",
                     static_cast<std::int64_t>(empty_candidates.size() +
                                               nonempty_candidates.size()));
    // Under GeoPrune, verify the tightest-bound empty first so its option
    // seeds the skyline for the dominance check (no-op otherwise).
    internal::OrderEmptiesForVerification(env, ctx, &empty_candidates);
    PTAR_TRACE_SPAN("verify");
    for (const VehicleId v : empty_candidates) {
      if (internal::BudgetExhausted(ctx)) {
        complete = false;
        break;
      }
      internal::VerifyEmptyVehicle((*ctx.fleet)[v], env, ctx, skyline, stats);
    }
    for (const VehicleId v : nonempty_candidates) {
      if (!complete || internal::BudgetExhausted(ctx)) {
        complete = false;
        break;
      }
      internal::VerifyNonEmptyVehicle((*ctx.fleet)[v], env, ctx, hooks,
                                      skyline, stats);
    }
    if (!complete) break;
  }

  MatchResult result;
  {
    obs::TraceSpan span("skyline_sort");
    span.AddArg("options", static_cast<std::int64_t>(skyline.size()));
    result.options = skyline.Sorted();
  }
  stats.compdists = ctx.oracle->compdists();
  stats.elapsed_micros = timer.ElapsedMicros();
  result.stats = stats;
  // Injected oracle faults may have hidden reachable candidates; report the
  // skyline as partial so consumers know options may be missing.
  result.complete = complete && ctx.oracle->faults() == 0;
  return result;
}

}  // namespace ptar
