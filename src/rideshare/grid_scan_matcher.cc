#include "rideshare/grid_scan_matcher.h"

#include "common/timer.h"
#include "obs/trace.h"
#include "rideshare/matcher_internal.h"
#include "rideshare/skyline.h"

namespace ptar {

MatchResult GridScanMatcher::Match(const Request& request, MatchContext& ctx) {
  Timer timer;
  ctx.oracle->BeginRequest(request.start, request.destination);
  ctx.oracle->ResetStats();

  internal::RequestEnv env;
  env.request = &request;
  env.direct = ctx.oracle->Dist(request.start, request.destination);
  env.fn = ctx.price_model.Ratio(request.riders);

  SkylineSet skyline;
  MatchStats stats;
  bool complete = true;
  // Non-empty vehicles are out of scope for this matcher by design; if any
  // exist, their options are missing and the result is partial.
  for (const KineticTree& tree : *ctx.fleet) {
    if (!tree.IsEmpty()) {
      complete = false;
      break;
    }
  }

  const CellId start_cell = ctx.grid->CellOfVertex(request.start);
  const std::span<const CellId> cells = ctx.grid->CellsByDistance(start_cell);

  std::vector<VehicleId> batch;
  for (const CellId cell : cells) {
    if (internal::BudgetExhausted(ctx)) {
      complete = false;
      break;
    }
    ++stats.scanned_cells;
    internal::ChargeBudget(ctx, 1);
    const std::span<const VehicleId> list = ctx.registry->EmptyVehicles(cell);
    if (list.empty()) continue;
    obs::TraceSpan cell_span("grid_scan_cell");
    cell_span.AddArg("cell", cell);
    batch.clear();
    // Shared enumeration with Algorithm 2 (no dedup needed: an empty
    // vehicle registers in exactly one cell), so the ladder fallback and
    // the GeoPrune prefilter agree on the base candidate set by
    // construction.
    internal::AppendBoardableEmpties(cell, env, ctx, {}, &batch);
    cell_span.AddArg("candidates", static_cast<std::int64_t>(batch.size()));
    // Under GeoPrune, verify the tightest-bound empty first so its option
    // seeds the skyline for the dominance check (no-op otherwise).
    internal::OrderEmptiesForVerification(env, ctx, &batch);
    // Same verification as the full matchers, so option values are
    // bit-identical to what BA/SSA/DSA emit for these vehicles.
    for (const VehicleId v : batch) {
      if (internal::BudgetExhausted(ctx)) {
        complete = false;
        break;
      }
      internal::VerifyEmptyVehicle((*ctx.fleet)[v], env, ctx, skyline, stats);
    }
    if (!complete && internal::BudgetExhausted(ctx)) break;
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
  result.complete = complete && ctx.oracle->faults() == 0;
  return result;
}

}  // namespace ptar
