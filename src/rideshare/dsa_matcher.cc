#include "rideshare/dsa_matcher.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/trace.h"
#include "rideshare/matcher_internal.h"
#include "rideshare/skyline.h"

namespace ptar {

MatchResult DsaMatcher::Match(const Request& request, MatchContext& ctx) {
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
  const std::size_t fleet_size = ctx.fleet->size();
  std::vector<char> emitted_empty(fleet_size, 0);
  std::vector<char> emitted_s(fleet_size, 0);
  std::vector<char> emitted_d(fleet_size, 0);
  std::vector<char> s_candidate(fleet_size, 0);
  std::vector<char> d_candidate(fleet_size, 0);
  std::vector<char> verified(fleet_size, 0);
  const InsertionHooks hooks =
      internal::MakeInsertionHooks(env, ctx.grid, ctx.prune, skyline, &stats);

  const std::span<const CellId> cells_s =
      ctx.grid->CellsByDistance(ctx.grid->CellOfVertex(request.start));
  const std::span<const CellId> cells_d =
      ctx.grid->CellsByDistance(ctx.grid->CellOfVertex(request.destination));
  const std::size_t limit_s =
      internal::VerifiedCellLimit(cells_s.size(), fraction_);
  const std::size_t limit_d =
      internal::VerifiedCellLimit(cells_d.size(), fraction_);

  bool complete = true;
  std::vector<VehicleId> empty_candidates;
  std::vector<VehicleId> s_new;
  std::vector<VehicleId> d_new;
  std::vector<VehicleId> to_verify;
  for (std::size_t idx = 0; idx < std::max(limit_s, limit_d); ++idx) {
    if (internal::BudgetExhausted(ctx)) {
      complete = false;
      break;
    }
    to_verify.clear();
    if (idx < limit_s) {
      const CellId g_s = cells_s[idx];
      obs::TraceSpan cell_span("expand_cell_s");
      cell_span.AddArg("cell", g_s);
      ++stats.scanned_cells;
      internal::ChargeBudget(ctx, 1);
      empty_candidates.clear();
      s_new.clear();
      {
        PTAR_TRACE_SPAN("collect");
        internal::CollectEmptyCandidates(g_s, env, ctx, skyline,
                                         emitted_empty, stats,
                                         &empty_candidates);
        internal::CollectStartCandidates(g_s, env, ctx, skyline, emitted_s,
                                         stats, &s_new);
      }
      cell_span.AddArg("candidates",
                       static_cast<std::int64_t>(empty_candidates.size() +
                                                 s_new.size()));
      // Under GeoPrune, verify the tightest-bound empty first so its option
      // seeds the skyline for the dominance check (no-op otherwise).
      internal::OrderEmptiesForVerification(env, ctx, &empty_candidates);
      PTAR_TRACE_SPAN("verify");
      for (const VehicleId v : empty_candidates) {
        if (internal::BudgetExhausted(ctx)) {
          complete = false;
          break;
        }
        internal::VerifyEmptyVehicle((*ctx.fleet)[v], env, ctx, skyline,
                                     stats);
      }
      if (!complete) break;
      for (const VehicleId v : s_new) {
        s_candidate[v] = 1;
        if (d_candidate[v] && !verified[v]) to_verify.push_back(v);
      }
    }
    if (idx < limit_d) {
      const CellId g_d = cells_d[idx];
      obs::TraceSpan cell_span("expand_cell_d");
      cell_span.AddArg("cell", g_d);
      ++stats.scanned_cells;
      internal::ChargeBudget(ctx, 1);
      d_new.clear();
      {
        PTAR_TRACE_SPAN("collect");
        internal::CollectDestCandidates(g_d, env, ctx, skyline, emitted_d,
                                        stats, &d_new);
      }
      cell_span.AddArg("candidates", static_cast<std::int64_t>(d_new.size()));
      for (const VehicleId v : d_new) {
        d_candidate[v] = 1;
        if (s_candidate[v] && !verified[v]) to_verify.push_back(v);
      }
    }
    PTAR_TRACE_SPAN("verify");
    for (const VehicleId v : to_verify) {
      if (verified[v]) continue;  // could appear twice in one round
      if (internal::BudgetExhausted(ctx)) {
        complete = false;
        break;
      }
      verified[v] = 1;
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
  result.complete = complete && ctx.oracle->faults() == 0;
  return result;
}

}  // namespace ptar
