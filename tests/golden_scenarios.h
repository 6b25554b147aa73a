// Scenarios behind the golden commit logs in tests/corpus/*.commits.
//
// Each scenario fixes a world, a request stream, engine options, and the
// matcher slots (slot 0 commits; later slots are shadow matchers measured
// against it). The logs were recorded from the one-request-at-a-time
// engine (the paper's online setting) before it was folded into the wave
// pipeline; golden_log_test replays the same scenarios through
// Engine::RunPipelined and requires the same commits. Only options that
// both engine generations understand appear here, so the definitions stay
// the single source of truth for what was recorded.
//
// File format (text, one record per line, '#' starts a comment):
//   commit <request> <served> <shed> <vehicle> <pickup_dist> <price>
//   matcher <name> <requests> <options_sum> <compdists> <verified>
//       <precision_sum> <recall_sum>          (shadow scenarios only)
// Doubles are printed with %.17g, so they round-trip exactly.

#ifndef PTAR_TESTS_GOLDEN_SCENARIOS_H_
#define PTAR_TESTS_GOLDEN_SCENARIOS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "scenario_builder.h"
#include "sim/engine.h"

namespace ptar::testing {

struct GoldenScenario {
  std::string name;  ///< File stem under tests/corpus/.
  /// Matcher slots by name ("BA", "SSA", "DSA"); slot 0 commits.
  std::vector<std::string> matchers;
  RequestStreamOptions stream;
  std::function<void(EngineOptions&)> configure;
};

/// Matcher for a golden slot name, at the paper's default SSA/DSA fraction.
inline std::unique_ptr<Matcher> MakeGoldenMatcher(const std::string& name) {
  if (name == "BA") return std::make_unique<BaselineMatcher>();
  if (name == "DSA") return std::make_unique<DsaMatcher>(0.16);
  PTAR_CHECK(name == "SSA") << "unknown golden matcher " << name;
  return std::make_unique<SsaMatcher>(0.16);
}

/// Options shared by every scenario before its own tweaks.
inline EngineOptions GoldenBaseOptions() {
  EngineOptions eopts;
  eopts.num_vehicles = 16;
  eopts.seed = 29;
  // Off in every build type, so debug and release record the same logs.
  eopts.audit_after_commit = false;
  return eopts;
}

inline std::vector<GoldenScenario> GoldenScenarios() {
  const RequestStreamOptions stream{.num_requests = 60,
                                    .duration_seconds = 900.0,
                                    .seed = 41};
  return {
      {"golden_dijkstra", {"SSA"}, stream, [](EngineOptions&) {}},
      {"golden_ch",
       {"SSA"},
       stream,
       [](EngineOptions& e) { e.distance_backend = DistanceBackend::kCH; }},
      {"golden_ellipse",
       {"SSA"},
       stream,
       [](EngineOptions& e) { e.prune = PruneMode::kEllipse; }},
      // Six seats, a dense stream and generous constraints grow deep trees,
      // so the 64-branch cap actually drops schedules.
      {"golden_cap64",
       {"SSA"},
       {.num_requests = 90,
        .duration_seconds = 300.0,
        .epsilon = 1.0,
        .waiting_minutes = 6.0,
        .seed = 43},
       [](EngineOptions& e) {
         e.num_vehicles = 6;
         e.vehicle_capacity = 6;
         e.tree_max_branches = 64;
       }},
      // A budget most full matches overrun walks the ladder through the SSA
      // and grid-scan fallbacks to shed, and back as sheds count as healthy.
      {"golden_ladder",
       {"SSA"},
       stream,
       [](EngineOptions& e) {
         e.overload.request_budget = 30;
         e.overload.degrade_after = 1;
         e.overload.recover_after = 2;
       }},
      {"golden_random",
       {"SSA"},
       stream,
       [](EngineOptions& e) { e.policy = ChoicePolicy::kRandom; }},
      {"golden_shadow", {"BA", "SSA", "DSA"}, stream, [](EngineOptions&) {}},
  };
}

}  // namespace ptar::testing

#endif  // PTAR_TESTS_GOLDEN_SCENARIOS_H_
