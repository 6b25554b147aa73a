// Differential runner: replays one scenario through the matchers under
// test and the brute-force reference in lockstep and classifies every
// per-request skyline disagreement.

#ifndef PTAR_CHECK_DIFFERENTIAL_H_
#define PTAR_CHECK_DIFFERENTIAL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/fault_injection.h"
#include "check/scenario.h"
#include "graph/distance_oracle.h"
#include "rideshare/matcher.h"
#include "sim/engine.h"

namespace ptar::check {

enum class DivergenceType {
  kMissingOption,    ///< Reference has an option the matcher lacks.
  kSpuriousOption,   ///< Matcher has an option the reference lacks.
  kWrongPrice,       ///< Same vehicle and pickup distance, price differs.
  kWrongPickupDist,  ///< Same vehicle and price, pickup distance differs.
};

const char* DivergenceTypeName(DivergenceType type);

/// One classified disagreement between a matcher's skyline and the
/// reference skyline for one request.
struct Divergence {
  std::string matcher;
  std::size_t request_index = 0;  ///< Position in ScenarioSpec::requests.
  RequestId request = kInvalidRequest;
  DivergenceType type = DivergenceType::kMissingOption;
  /// The reference's option (valid for missing / wrong-*).
  Option expected;
  /// The matcher's option (valid for spurious / wrong-*).
  Option actual;
  /// The matcher's per-lemma prune counters for this request. The
  /// reference never prunes, so any non-zero entry names a lemma that
  /// could have removed the lost option (the attribution the harness
  /// reports for missing-option divergences).
  LemmaCounters lemma_hits;
  /// The matcher's GeoPrune rejection count for this request. Non-zero on
  /// a missing-option divergence attributes the loss to the ellipse
  /// prefilter stage (e.g. a ShrinkEllipse fault), parallel to lemma_hits.
  std::uint64_t ellipse_pruned = 0;

  std::string Describe() const;
};

/// Drops every option *clearly* dominated by another option of the same
/// set: not worse than the dominator by more than `tolerance` in either
/// dimension, and better by more than `tolerance` in at least one.
///
/// Exact dominance is ill-conditioned at ties: when two insertions have
/// mathematically equal pickup distances, an ulp of summation-order noise
/// decides whether a skyline keeps one option or both, so the *exact* sets
/// legitimately differ between implementations. Both sides of a diff are
/// normalized with this filter first, which erases those tie ghosts while
/// leaving every beyond-tolerance disagreement intact.
std::vector<Option> NormalizeSkyline(std::span<const Option> options,
                                     double tolerance);

/// Subset-mode diff for budget-truncated (complete == false) results: a
/// partial skyline may *miss* arbitrarily many options (an unvisited
/// vehicle could even dominate what it kept), so missing options are not
/// divergences. What it must never do is invent or misprice one — every
/// actual option has to match some member of the reference's full
/// pre-skyline option set (`superset`, from
/// ReferenceMatcher::last_full_options) within `tolerance`. Unmatched
/// options classify as spurious, or wrong-price / wrong-pickup-dist when a
/// same-vehicle superset option agrees in the other dimension.
std::vector<Divergence> DiffSubset(std::span<const Option> superset,
                                   std::span<const Option> actual,
                                   double tolerance);

/// Classifies the disagreement between two canonically sorted skylines,
/// normalizing both with NormalizeSkyline first. Options are equal when
/// vehicles match and both dimensions agree within `tolerance` (per-slot
/// oracles may first compute a pair in different sweep directions, so
/// cross-matcher values can differ in low bits); matching ignores
/// multiplicity, so FP-merged near-duplicates never flag. Only `type`,
/// `expected`, and `actual` are filled in.
std::vector<Divergence> DiffSkylines(std::span<const Option> reference,
                                     std::span<const Option> actual,
                                     double tolerance);

struct DifferentialConfig {
  double tolerance = 1e-6;  ///< Same as the engine's precision/recall.
  bool stop_at_first = false;  ///< Stop after the first divergent request.
  /// Backend for every oracle in the run — matchers under test *and* the
  /// reference share it, so a divergence is always a matcher bug, never a
  /// backend rounding mismatch.
  DistanceBackend distance_backend = DistanceBackend::kDijkstra;
  /// GeoPrune prefilter for the scenario engine (EngineOptions::prune):
  /// every tested matcher runs behind it, while the reference never reads
  /// ctx.prune, so any divergence under kEllipse is a prefilter soundness
  /// bug (ptar_check --prune_check).
  PruneMode prune = PruneMode::kNone;
  /// Deterministic work-unit budget armed into every tested matcher's slot
  /// (0 = unlimited). The reference never charges or checks budgets, so it
  /// still produces the full answer; tested results that come back
  /// complete == false are then diffed in subset mode (DiffSubset). The
  /// engine's degradation ladder is frozen at kFull for the whole run so
  /// every matcher is evaluated on every request.
  std::uint64_t request_budget = 0;
  /// Oracle faults injected into every *tested* matcher's oracle — never
  /// the reference's and never the engine's maintenance oracle. Faulted
  /// results are incomplete by definition and must still pass DiffSubset
  /// against the unfaulted reference: faults may only remove options.
  FaultPlan faults;
  /// Per-vehicle kinetic-tree branch cap for the scenario engine. The
  /// harness pins a finite cap (the seed's shipped default) instead of the
  /// engine's unlimited default: the brute-force reference enumerates every
  /// branch of every vehicle per request, so an adversarial seed's
  /// factorial fan-out would make the sweep intractable. All slots —
  /// tested matchers and the reference — share the same capped trees, so
  /// parity semantics are unchanged.
  std::size_t tree_max_branches = 64;
};

/// Builds the matchers under test; the reference is appended by the
/// runner. Slot 0 commits, so it should be a full-coverage matcher.
using MatcherFactory =
    std::function<std::vector<std::unique_ptr<Matcher>>()>;

/// BA + SSA(1.0) + DSA(1.0) — full cell coverage, where the lemmas must
/// be answer-preserving.
std::vector<std::unique_ptr<Matcher>> MakeDefaultMatchers();

struct MatcherSummary {
  std::string name;
  std::uint64_t options_sum = 0;
  MatchStats totals;
};

struct DifferentialOutcome {
  static constexpr std::size_t kNoDivergence = static_cast<std::size_t>(-1);

  std::size_t requests_run = 0;
  std::size_t first_divergent_request = kNoDivergence;
  /// Tested results tagged complete == false (budget- or fault-truncated);
  /// each was checked in subset mode instead of full-equality mode.
  std::size_t partial_results = 0;
  std::vector<Divergence> divergences;
  /// One entry per matcher under test (the reference is excluded).
  std::vector<MatcherSummary> matchers;

  bool ok() const { return divergences.empty(); }
};

/// Rebuilds the scenario's world and replays its request stream through
/// the matchers (from `factory`, or MakeDefaultMatchers when null) plus
/// the reference, committing slot 0's choice per request.
StatusOr<DifferentialOutcome> RunDifferential(
    const ScenarioSpec& spec, const DifferentialConfig& config,
    const MatcherFactory& factory = nullptr);

}  // namespace ptar::check

#endif  // PTAR_CHECK_DIFFERENTIAL_H_
