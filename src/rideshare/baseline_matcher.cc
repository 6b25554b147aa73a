#include "rideshare/baseline_matcher.h"

#include "common/timer.h"
#include "obs/trace.h"
#include "rideshare/matcher_internal.h"
#include "rideshare/skyline.h"

namespace ptar {

MatchResult BaselineMatcher::Match(const Request& request, MatchContext& ctx) {
  Timer timer;
  ctx.oracle->BeginRequest(request.start, request.destination);
  ctx.oracle->ResetStats();

  internal::RequestEnv env;
  env.request = &request;
  env.direct = ctx.oracle->Dist(request.start, request.destination);
  env.fn = ctx.price_model.Ratio(request.riders);

  SkylineSet skyline;
  MatchStats stats;
  // BA never prunes on grid bounds; under --prune=ellipse it still applies
  // the insertion lemmas on GeoPrune's bound (plus the verify-time
  // empty-vehicle check inside VerifyEmptyVehicle), which is what makes a
  // pruned full scan cheap.
  const InsertionHooks hooks = internal::MakeInsertionHooks(
      env, /*grid=*/nullptr, ctx.prune, skyline, &stats);

  // BA verifies the whole fleet; the empty vehicles the group can board go
  // first (VerifyEmptyVehicle computes no distance for the others).
  std::vector<VehicleId> boardable_empties;
  {
    obs::TraceSpan span("collect");
    for (const KineticTree& tree : *ctx.fleet) {
      if (tree.IsEmpty() && tree.capacity() >= request.riders) {
        boardable_empties.push_back(tree.vehicle());
      }
    }
    span.AddArg("empty", static_cast<std::int64_t>(boardable_empties.size()));
  }

  bool complete = true;
  {
    PTAR_TRACE_SPAN("verify");
    // Boardable empties first — under GeoPrune tightest lower bound
    // leading, so the verify-time dominance check sees a seeded skyline
    // for the rest of the fleet. Without a budget the order never changes
    // the skyline: each verification is pure per vehicle, the skyline keeps
    // the non-dominated set whatever the insertion order, and pruning
    // removes only dominated candidates.
    internal::OrderEmptiesForVerification(env, ctx, &boardable_empties);
    for (const VehicleId v : boardable_empties) {
      if (internal::BudgetExhausted(ctx)) {
        complete = false;
        break;
      }
      internal::VerifyEmptyVehicle((*ctx.fleet)[v], env, ctx, skyline,
                                   stats);
    }
    for (const KineticTree& tree : *ctx.fleet) {
      if (!complete || internal::BudgetExhausted(ctx)) {
        complete = false;
        break;
      }
      if (tree.IsEmpty()) {
        // Boardable empties were verified above; the non-boardable rest
        // still pass through VerifyEmptyVehicle so every vehicle counts as
        // verified.
        if (tree.capacity() >= request.riders) continue;
        internal::VerifyEmptyVehicle(tree, env, ctx, skyline, stats);
      } else {
        internal::VerifyNonEmptyVehicle(tree, env, ctx, hooks, skyline,
                                        stats);
      }
    }
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
