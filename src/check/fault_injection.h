// Deliberately broken matchers for validating the differential harness.
//
// A correctness harness that has never caught a bug is untested itself.
// BrokenLemmaMatcher is a full-coverage matcher (scans the whole fleet
// like BA) whose pruning hook applies one chosen lemma with its grid lower
// bounds inflated by a factor — the exact over-aggressive-bound bug class
// the harness exists to catch. With a factor comfortably above the
// network's distance/lower-bound ratio the "bound" exceeds true distances,
// the lemma prunes options the reference keeps, and the harness must
// report missing-option divergences attributed to that lemma's counter.
// BrokenPrefilterMatcher is the same bug class one stage earlier: BA behind
// a GeoPrune prefilter whose Euclidean bound is inflated past the network
// distance (the ShrinkEllipse fault), caught and attributed through the
// ellipse_pruned counter.

// FaultPlan / MakeFaultHook extend the same philosophy to the substrate:
// a declarative description of distance-oracle misbehavior (failing pairs,
// slow computations, periodic stalls) compiled into a
// DistanceOracle::FaultHook. Failure decisions are a pure hash of the
// vertex pair and the plan seed, so the same pair fails in every oracle,
// every thread, and every replay — injected runs stay reproducible. The
// degradation machinery (work budgets, the engine's overload ladder, the
// kinetic-tree auditor) is exercised against these plans by ptar_check and
// the robustness test suite.

#ifndef PTAR_CHECK_FAULT_INJECTION_H_
#define PTAR_CHECK_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/distance_oracle.h"
#include "kinetic/kinetic_tree.h"
#include "rideshare/matcher.h"

namespace ptar::check {

class BrokenLemmaMatcher : public Matcher {
 public:
  /// `lemma` selects the sabotaged predicate: 1 (empty-vehicle dominance),
  /// 3 (start-edge dominance hook), or 11 (after-start dominance hook).
  /// `inflation` scales the grid lower bounds fed to it.
  explicit BrokenLemmaMatcher(int lemma = 3, double inflation = 3.0);

  std::string name() const override {
    return "BROKEN-L" + std::to_string(lemma_);
  }
  MatchResult Match(const Request& request, MatchContext& ctx) override;

  int lemma() const { return lemma_; }

 private:
  int lemma_;
  double inflation_;
};

class BrokenPrefilterMatcher : public Matcher {
 public:
  /// Runs BA with ctx.prune replaced by a prefilter built with
  /// EllipsePrefilter::Options::shrink_factor = `shrink_factor`; factors
  /// below 1 make the prefilter unsound.
  explicit BrokenPrefilterMatcher(double shrink_factor);

  std::string name() const override { return "BA+SHRUNK-EL"; }
  MatchResult Match(const Request& request, MatchContext& ctx) override;

 private:
  double shrink_factor_;
};

/// Declarative oracle-fault description, parsed from the `--inject` flag
/// (comma-separated key=value pairs: fail_rate, seed, slow_us, stall_every,
/// stall_us; e.g. "fail_rate=0.05,seed=7,slow_us=200").
struct FaultPlan {
  /// Fraction (0..1) of distance computations that fail (answer
  /// kInfDistance). Decided per vertex pair by a pure hash with `seed`, so
  /// a pair fails identically across oracles, threads, and replays.
  double fail_rate = 0.0;
  std::uint64_t seed = 1;
  /// Busy-wait inside every hooked computation (slow-backend emulation for
  /// deadline/shedding tests; wall-clock, inherently nondeterministic).
  double slow_micros = 0.0;
  /// Every `stall_every`-th hooked computation (0 = never) additionally
  /// busy-waits `stall_micros` — emulates a thread losing the CPU.
  std::uint64_t stall_every = 0;
  double stall_micros = 0.0;

  bool active() const {
    return fail_rate > 0.0 || slow_micros > 0.0 ||
           (stall_every > 0 && stall_micros > 0.0);
  }
};

StatusOr<FaultPlan> ParseFaultPlan(const std::string& spec);

/// Compiles the plan into a hook for DistanceOracle::SetFaultHook. Install
/// a separate hook per oracle: the stall counter is per-hook state and each
/// oracle is single-threaded, keeping injected runs race-free. Returns a
/// null hook for an inactive plan.
DistanceOracle::FaultHook MakeFaultHook(const FaultPlan& plan);

/// Deterministically corrupts one leg of one non-empty tree (schedule
/// corruption for auditor tests). Returns the corrupted vehicle, or
/// kInvalidVehicle when every tree is empty.
VehicleId CorruptRandomLeg(std::vector<KineticTree>& fleet,
                           std::uint64_t seed);

}  // namespace ptar::check

#endif  // PTAR_CHECK_FAULT_INJECTION_H_
