#include "check/fault_injection.h"

#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "prune/ellipse_prefilter.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/lemmas.h"
#include "rideshare/matcher_internal.h"
#include "rideshare/skyline.h"

namespace ptar::check {

BrokenLemmaMatcher::BrokenLemmaMatcher(int lemma, double inflation)
    : lemma_(lemma), inflation_(inflation) {
  PTAR_CHECK(lemma == 1 || lemma == 3 || lemma == 11)
      << "unsupported broken lemma " << lemma;
  PTAR_CHECK(inflation > 1.0);
}

BrokenPrefilterMatcher::BrokenPrefilterMatcher(double shrink_factor)
    : shrink_factor_(shrink_factor) {
  PTAR_CHECK(shrink_factor > 0.0);
}

MatchResult BrokenPrefilterMatcher::Match(const Request& request,
                                          MatchContext& ctx) {
  // Rebuilt per request (O(edges)): the harness's worlds are small, and a
  // per-call filter can never outlive the graph it borrows.
  const prune::EllipsePrefilter shrunk = prune::EllipsePrefilter::Build(
      ctx.grid->graph(), {.shrink_factor = shrink_factor_});
  MatchContext shrunk_ctx = ctx;
  shrunk_ctx.prune = &shrunk;
  return BaselineMatcher().Match(request, shrunk_ctx);
}

namespace {

/// First draw of the SplitMix64 stream at the (unordered) pair + seed: a
/// pure, well-mixed hash.
std::uint64_t MixPair(VertexId a, VertexId b, std::uint64_t seed) {
  if (a > b) std::swap(a, b);
  return SplitMix64((static_cast<std::uint64_t>(a) << 32 |
                     static_cast<std::uint64_t>(b)) +
                    seed)
      .Next();
}

void BusyWaitMicros(double micros) {
  if (micros <= 0.0) return;
  Timer timer;
  while (timer.ElapsedMicros() < micros) {
    // Busy-wait: sleeping is too coarse for the sub-millisecond delays the
    // robustness tests inject.
  }
}

}  // namespace

StatusOr<FaultPlan> ParseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("--inject token '" + token +
                                     "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    char* parse_end = nullptr;
    const double num = std::strtod(value.c_str(), &parse_end);
    if (value.empty() || parse_end != value.c_str() + value.size()) {
      return Status::InvalidArgument("--inject value for '" + key +
                                     "' is not a number: '" + value + "'");
    }
    if (key == "fail_rate") {
      if (num < 0.0 || num > 1.0) {
        return Status::InvalidArgument("--inject fail_rate must be in [0,1]");
      }
      plan.fail_rate = num;
    } else if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(num);
    } else if (key == "slow_us") {
      if (num < 0.0) {
        return Status::InvalidArgument("--inject slow_us must be >= 0");
      }
      plan.slow_micros = num;
    } else if (key == "stall_every") {
      if (num < 0.0) {
        return Status::InvalidArgument("--inject stall_every must be >= 0");
      }
      plan.stall_every = static_cast<std::uint64_t>(num);
    } else if (key == "stall_us") {
      if (num < 0.0) {
        return Status::InvalidArgument("--inject stall_us must be >= 0");
      }
      plan.stall_micros = num;
    } else {
      return Status::InvalidArgument(
          "--inject key '" + key +
          "' unknown (expected fail_rate, seed, slow_us, stall_every, "
          "stall_us)");
    }
  }
  return plan;
}

DistanceOracle::FaultHook MakeFaultHook(const FaultPlan& plan) {
  if (!plan.active()) return nullptr;
  // Failure threshold in hash space; the hash is uniform, so the observed
  // fail fraction converges on fail_rate. fail_rate == 1.0 is pinned to the
  // max: the product rounds to 2^64, whose uint64 cast is undefined.
  const std::uint64_t threshold =
      plan.fail_rate >= 1.0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(
                plan.fail_rate *
                static_cast<double>(
                    std::numeric_limits<std::uint64_t>::max()));
  // Per-hook stall counter (each oracle is single-threaded).
  auto calls = std::make_shared<std::uint64_t>(0);
  return [plan, threshold, calls](VertexId a, VertexId b) {
    BusyWaitMicros(plan.slow_micros);
    if (plan.stall_every > 0 && ++*calls % plan.stall_every == 0) {
      BusyWaitMicros(plan.stall_micros);
    }
    return plan.fail_rate > 0.0 && MixPair(a, b, plan.seed) < threshold;
  };
}

VehicleId CorruptRandomLeg(std::vector<KineticTree>& fleet,
                           std::uint64_t seed) {
  std::vector<VehicleId> candidates;
  for (const KineticTree& tree : fleet) {
    if (!tree.IsEmpty()) candidates.push_back(tree.vehicle());
  }
  if (candidates.empty()) return kInvalidVehicle;
  const VehicleId victim =
      candidates[MixPair(1, 2, seed) % candidates.size()];
  KineticTree& tree = fleet[victim];
  const std::size_t branch = MixPair(3, 4, seed) % tree.num_branches();
  const Schedule schedule = tree.BranchSchedule(branch);
  const std::size_t legs = schedule.legs.size();
  if (legs == 0) return kInvalidVehicle;
  const std::size_t leg = MixPair(5, 6, seed) % legs;
  // A hugely inflated (but finite) leg: breaks leg exactness, validity, and
  // the active-branch minimality the auditor checks.
  tree.CorruptLegForTest(branch, leg, schedule.legs[leg] + 1e7);
  return victim;
}

MatchResult BrokenLemmaMatcher::Match(const Request& request,
                                      MatchContext& ctx) {
  Timer timer;
  ctx.oracle->BeginRequest(request.start, request.destination);
  ctx.oracle->ResetStats();

  internal::RequestEnv env;
  env.request = &request;
  env.direct = ctx.oracle->Dist(request.start, request.destination);
  env.fn = ctx.price_model.Ratio(request.riders);

  SkylineSet skyline;
  MatchStats stats;
  const GridIndex& grid = *ctx.grid;
  const double inflation = inflation_;
  const int lemma = lemma_;
  const double fn = env.fn;
  const Distance direct = env.direct;

  InsertionHooks hooks;
  if (lemma == 3) {
    hooks.prune_s = [&request, &grid, &skyline, &stats, inflation, fn,
                     direct](const SPositionContext& c) {
      if (skyline.empty()) return false;
      const VertexId s = request.start;
      const Distance l_ox = inflation * grid.LowerBound(s, c.ox);
      const Distance l_oy =
          c.tail ? 0.0 : inflation * grid.LowerBound(s, c.oy);
      if (lemmas::StartEdgePruned(l_ox, l_oy, c.leg_dist, c.tail,
                                  c.dist_tr_ox, skyline.options(), fn,
                                  direct)) {
        ++stats.lemma_hits[3];
        return true;
      }
      return false;
    };
  } else if (lemma == 11) {
    hooks.prune_d = [&request, &grid, &skyline, &stats, inflation, fn,
                     direct](const DPositionContext& c) {
      if (skyline.empty()) return false;
      const VertexId d = request.destination;
      const Distance l_ox = inflation * grid.LowerBound(d, c.ox);
      const Distance l_oy =
          c.tail ? 0.0 : inflation * grid.LowerBound(d, c.oy);
      const Distance detour_lb = lemmas::DetourLowerBound(
          c.same_gap, c.tail, c.dist_ox_s, c.delta_s, l_ox, l_oy, c.leg_dist,
          direct);
      if (lemmas::AfterStartPruned(c.pickup_dist, detour_lb,
                                   skyline.options(), fn, direct)) {
        ++stats.lemma_hits[11];
        return true;
      }
      return false;
    };
  }

  for (const KineticTree& tree : *ctx.fleet) {
    if (tree.IsEmpty()) {
      if (lemma == 1 && !skyline.empty() &&
          lemmas::EmptyVehiclePruned(
              inflation * grid.LowerBound(tree.location(), request.start),
              skyline.options(), fn, direct)) {
        ++stats.pruned_vehicles;
        ++stats.lemma_hits[1];
        continue;
      }
      internal::VerifyEmptyVehicle(tree, env, ctx, skyline, stats);
    } else {
      internal::VerifyNonEmptyVehicle(tree, env, ctx, hooks, skyline, stats);
    }
  }

  MatchResult result;
  result.options = skyline.Sorted();
  stats.compdists = ctx.oracle->compdists();
  stats.elapsed_micros = timer.ElapsedMicros();
  result.stats = stats;
  return result;
}

}  // namespace ptar::check
