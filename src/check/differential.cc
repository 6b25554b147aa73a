#include "check/differential.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "check/reference_matcher.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"

namespace ptar::check {

namespace {

bool NearlyEqual(double a, double b, double tolerance) {
  return std::abs(a - b) <= tolerance;
}

bool SameOption(const Option& a, const Option& b, double tolerance) {
  return a.vehicle == b.vehicle &&
         NearlyEqual(a.pickup_dist, b.pickup_dist, tolerance) &&
         NearlyEqual(a.price, b.price, tolerance);
}

}  // namespace

const char* DivergenceTypeName(DivergenceType type) {
  switch (type) {
    case DivergenceType::kMissingOption:
      return "missing-option";
    case DivergenceType::kSpuriousOption:
      return "spurious-option";
    case DivergenceType::kWrongPrice:
      return "wrong-price";
    case DivergenceType::kWrongPickupDist:
      return "wrong-pickup-dist";
  }
  return "unknown";
}

std::string Divergence::Describe() const {
  std::ostringstream out;
  out << matcher << " request#" << request_index << " (id " << request
      << "): " << DivergenceTypeName(type);
  const auto describe_option = [&out](const char* label, const Option& o) {
    out << ' ' << label << "=<vehicle " << o.vehicle << ", pickup "
        << o.pickup_dist << ", price " << o.price << '>';
  };
  if (type != DivergenceType::kSpuriousOption) {
    describe_option("expected", expected);
  }
  if (type != DivergenceType::kMissingOption) {
    describe_option("actual", actual);
  }
  bool any_lemma = false;
  for (std::size_t l = 1; l <= LemmaCounters::kNumLemmas; ++l) {
    if (lemma_hits[l] == 0) continue;
    out << (any_lemma ? "," : " lemma-hits:") << " L" << l << "="
        << lemma_hits[l];
    any_lemma = true;
  }
  if (ellipse_pruned > 0) {
    out << " prune-hits: ellipse=" << ellipse_pruned;
  }
  return out.str();
}

std::vector<Option> NormalizeSkyline(std::span<const Option> options,
                                     double tolerance) {
  std::vector<Option> kept;
  kept.reserve(options.size());
  for (std::size_t i = 0; i < options.size(); ++i) {
    const Option& a = options[i];
    bool dominated = false;
    for (std::size_t j = 0; j < options.size() && !dominated; ++j) {
      if (j == i) continue;
      const Option& e = options[j];
      dominated = e.pickup_dist <= a.pickup_dist + tolerance &&
                  e.price <= a.price + tolerance &&
                  (e.pickup_dist < a.pickup_dist - tolerance ||
                   e.price < a.price - tolerance);
    }
    if (!dominated) kept.push_back(a);
  }
  return kept;
}

std::vector<Divergence> DiffSubset(std::span<const Option> superset,
                                   std::span<const Option> actual,
                                   double tolerance) {
  std::vector<Divergence> out;
  for (const Option& a : actual) {
    bool matched = false;
    for (const Option& e : superset) {
      if (SameOption(e, a, tolerance)) {
        matched = true;
        break;
      }
    }
    if (matched) continue;
    Divergence d;
    d.type = DivergenceType::kSpuriousOption;
    d.actual = a;
    for (const Option& e : superset) {
      if (e.vehicle != a.vehicle) continue;
      if (NearlyEqual(e.pickup_dist, a.pickup_dist, tolerance)) {
        d.type = DivergenceType::kWrongPrice;
      } else if (NearlyEqual(e.price, a.price, tolerance)) {
        d.type = DivergenceType::kWrongPickupDist;
      } else {
        continue;
      }
      d.expected = e;
      break;
    }
    out.push_back(d);
  }
  return out;
}

std::vector<Divergence> DiffSkylines(std::span<const Option> reference,
                                     std::span<const Option> actual,
                                     double tolerance) {
  const std::vector<Option> ref = NormalizeSkyline(reference, tolerance);
  const std::vector<Option> act = NormalizeSkyline(actual, tolerance);

  // First pass: an option is matched when the other side has *some* option
  // agreeing in vehicle and both dimensions. Matching is deliberately not
  // one-to-one: when one side's exact dedup merges a near-duplicate pair
  // the other side kept, the multiplicity difference is FP noise.
  std::vector<char> actual_used(act.size(), 0);
  std::vector<const Option*> unmatched_expected;
  for (const Option& e : ref) {
    bool matched = false;
    for (const Option& a : act) {
      if (SameOption(e, a, tolerance)) {
        matched = true;
        break;
      }
    }
    if (!matched) unmatched_expected.push_back(&e);
  }
  for (std::size_t i = 0; i < act.size(); ++i) {
    for (const Option& e : ref) {
      if (SameOption(e, act[i], tolerance)) {
        actual_used[i] = 1;
        break;
      }
    }
  }

  // Second pass: attribute leftovers. A same-vehicle pair agreeing in one
  // dimension is a wrong-value divergence; anything else is missing or
  // spurious.
  std::vector<Divergence> out;
  for (const Option* e : unmatched_expected) {
    Divergence d;
    d.expected = *e;
    d.type = DivergenceType::kMissingOption;
    for (std::size_t i = 0; i < act.size(); ++i) {
      if (actual_used[i] || act[i].vehicle != e->vehicle) continue;
      if (NearlyEqual(act[i].pickup_dist, e->pickup_dist, tolerance)) {
        d.type = DivergenceType::kWrongPrice;
      } else if (NearlyEqual(act[i].price, e->price, tolerance)) {
        d.type = DivergenceType::kWrongPickupDist;
      } else {
        continue;
      }
      d.actual = act[i];
      actual_used[i] = 1;
      break;
    }
    out.push_back(d);
  }
  for (std::size_t i = 0; i < act.size(); ++i) {
    if (actual_used[i]) continue;
    Divergence d;
    d.type = DivergenceType::kSpuriousOption;
    d.actual = act[i];
    out.push_back(d);
  }
  return out;
}

std::vector<std::unique_ptr<Matcher>> MakeDefaultMatchers() {
  std::vector<std::unique_ptr<Matcher>> matchers;
  matchers.push_back(std::make_unique<BaselineMatcher>());
  matchers.push_back(std::make_unique<SsaMatcher>(1.0));
  matchers.push_back(std::make_unique<DsaMatcher>(1.0));
  return matchers;
}

StatusOr<DifferentialOutcome> RunDifferential(
    const ScenarioSpec& spec, const DifferentialConfig& config,
    const MatcherFactory& factory) {
  auto built = BuildScenario(spec);
  if (!built.ok()) return built.status();

  std::vector<std::unique_ptr<Matcher>> owned =
      factory ? factory() : MakeDefaultMatchers();
  if (owned.empty()) {
    return Status::InvalidArgument("matcher factory produced no matchers");
  }
  const std::size_t num_tested = owned.size();
  auto reference_owner = std::make_unique<ReferenceMatcher>();
  ReferenceMatcher* reference_matcher = reference_owner.get();
  owned.push_back(std::move(reference_owner));
  std::vector<Matcher*> matchers;
  matchers.reserve(owned.size());
  for (const auto& m : owned) matchers.push_back(m.get());

  EngineOptions eopts;
  eopts.vehicle_capacity = spec.vehicle_capacity;
  eopts.seed = spec.engine_seed;
  eopts.start_vertices = spec.vehicle_starts;
  eopts.distance_backend = config.distance_backend;
  eopts.prune = config.prune;
  eopts.tree_max_branches = config.tree_max_branches;
  if (config.request_budget > 0) {
    eopts.overload.request_budget = config.request_budget;
    // Freeze the ladder at kFull: the harness wants every matcher (and the
    // reference) evaluated on every request, not the engine's fallback.
    eopts.overload.degrade_after = std::numeric_limits<int>::max();
  }
  Engine engine(built.value().graph.get(), built.value().grid.get(), eopts);
  if (config.faults.active()) {
    const FaultPlan plan = config.faults;
    engine.SetFaultHookFactory(
        [plan, num_tested](std::size_t slot) -> DistanceOracle::FaultHook {
          // Tested slots only: the reference slot stays clean so the
          // subset check runs against ground truth.
          if (slot >= num_tested) return nullptr;
          return MakeFaultHook(plan);
        });
  }

  DifferentialOutcome outcome;
  outcome.matchers.resize(num_tested);
  for (std::size_t m = 0; m < num_tested; ++m) {
    outcome.matchers[m].name = matchers[m]->name();
  }

  for (std::size_t r = 0; r < spec.requests.size(); ++r) {
    const Request& request = spec.requests[r];
    const Engine::RequestOutcome result =
        engine.ProcessRequest(request, matchers);
    ++outcome.requests_run;
    const std::vector<Option>& reference = result.results.back().options;
    bool diverged = false;
    for (std::size_t m = 0; m < num_tested; ++m) {
      const MatchResult& mr = result.results[m];
      outcome.matchers[m].options_sum += mr.options.size();
      outcome.matchers[m].totals.Accumulate(mr.stats);
      std::vector<Divergence> diffs;
      if (mr.complete) {
        diffs = DiffSkylines(reference, mr.options, config.tolerance);
      } else {
        // Truncated result: only membership in the reference's full
        // pre-skyline option set is required (see DiffSubset).
        ++outcome.partial_results;
        diffs = DiffSubset(reference_matcher->last_full_options(),
                           mr.options, config.tolerance);
      }
      for (Divergence& d : diffs) {
        d.matcher = matchers[m]->name();
        d.request_index = r;
        d.request = request.id;
        d.lemma_hits = mr.stats.lemma_hits;
        d.ellipse_pruned = mr.stats.ellipse_pruned;
        outcome.divergences.push_back(std::move(d));
        diverged = true;
      }
    }
    if (diverged &&
        outcome.first_divergent_request == DifferentialOutcome::kNoDivergence) {
      outcome.first_divergent_request = r;
    }
    if (diverged && config.stop_at_first) break;
  }
  return outcome;
}

}  // namespace ptar::check
