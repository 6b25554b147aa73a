// Matcher interface and shared context for the dynamic-ridesharing
// matching algorithms (paper Section VI).

#ifndef PTAR_RIDESHARE_MATCHER_H_
#define PTAR_RIDESHARE_MATCHER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/distance_oracle.h"
#include "grid/grid_index.h"
#include "grid/vehicle_registry.h"
#include "kinetic/kinetic_tree.h"
#include "kinetic/request.h"
#include "rideshare/option.h"
#include "rideshare/price_model.h"
#include "rideshare/work_budget.h"

namespace ptar {

namespace prune {
class EllipsePrefilter;
}  // namespace prune

/// How often each pruning lemma fired, indexed by the paper's lemma number
/// (1-11; slot 0 is unused). The aggregate pruned_cells / pruned_vehicles
/// counters cannot say *which* bound removed a candidate; these can, which
/// is what the differential harness (src/check) reports when it attributes
/// a skyline divergence to a specific over-aggressive lemma.
struct LemmaCounters {
  static constexpr std::size_t kNumLemmas = 11;
  std::array<std::uint64_t, kNumLemmas + 1> hits{};

  std::uint64_t& operator[](std::size_t lemma) { return hits[lemma]; }
  std::uint64_t operator[](std::size_t lemma) const { return hits[lemma]; }

  std::uint64_t Total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t h : hits) sum += h;
    return sum;
  }

  void Accumulate(const LemmaCounters& other) {
    for (std::size_t i = 0; i < hits.size(); ++i) hits[i] += other.hits[i];
  }

  friend bool operator==(const LemmaCounters& a,
                         const LemmaCounters& b) = default;
};

/// Per-request cost measures — the metrics every experiment in Section VII
/// reports.
struct MatchStats {
  std::uint64_t verified_vehicles = 0;  ///< Vehicles whose tree was probed.
  std::uint64_t compdists = 0;  ///< Shortest-path distance computations.
  std::uint64_t scanned_cells = 0;    ///< Grid cells visited.
  std::uint64_t pruned_cells = 0;     ///< Cells skipped by Lemmas 2/4/6/8/10.
  /// Vehicles skipped for capacity or by an edge-level lemma (1, 3, 5, 7,
  /// 9) on either bound.
  std::uint64_t pruned_vehicles = 0;
  /// Lemma tests run on GeoPrune's bound. Each follows a grid-bound test
  /// of the same lemma that did not prune, except BA's and the verify-time
  /// Lemma 1, which have no grid test.
  std::uint64_t ellipse_checked = 0;
  std::uint64_t ellipse_pruned = 0;  ///< GeoPrune tests that pruned.
  /// Grid-bound rejections by lemma; GeoPrune's are in ellipse_pruned.
  LemmaCounters lemma_hits;
  double elapsed_micros = 0.0;

  void Accumulate(const MatchStats& other) {
    verified_vehicles += other.verified_vehicles;
    compdists += other.compdists;
    scanned_cells += other.scanned_cells;
    pruned_cells += other.pruned_cells;
    pruned_vehicles += other.pruned_vehicles;
    ellipse_checked += other.ellipse_checked;
    ellipse_pruned += other.ellipse_pruned;
    lemma_hits.Accumulate(other.lemma_hits);
    elapsed_micros += other.elapsed_micros;
  }
};

/// The answer to one request: all non-dominated options plus cost stats.
struct MatchResult {
  std::vector<Option> options;  ///< Skyline, sorted by pickup distance.
  MatchStats stats;
  /// False when the matcher stopped early (work budget / deadline / faults)
  /// before visiting every candidate. The options present are still exact
  /// and valid — a partial result only ever *misses* options, it never
  /// invents or misprices one (tested by the differential harness).
  bool complete = true;
};

/// Everything a matcher needs about the world. Matchers only read it: the
/// engine refreshes every stale kinetic tree before a match round, so the
/// fleet a matcher sees is fresh, and a matcher never repairs it.
struct MatchContext {
  const GridIndex* grid = nullptr;
  const std::vector<KineticTree>* fleet = nullptr;  ///< By VehicleId.
  DistanceOracle* oracle = nullptr;
  PriceModel price_model;
  /// Optional per-request work budget (null = unlimited). The matcher must
  /// check it only at safe points (between cells / vehicles) and tag the
  /// result `complete = false` when it stops early. The budget is owned by
  /// the caller and is not shared across concurrently-running matchers.
  WorkBudget* budget = nullptr;
  /// The grid's vehicle lists and cell aggregates. Read in place by
  /// concurrent workers: the engine rebuilds dirty aggregates before a
  /// match round and writes only after the round has joined.
  const VehicleRegistry* registry = nullptr;
  /// Optional GeoPrune prefilter (src/prune), installed by the engine when
  /// EngineOptions::prune is kEllipse. When set, every edge-level lemma
  /// that the grid bound did not prune runs again on this second,
  /// per-pair-tight calibrated-Euclidean lower bound (one predicate per
  /// lemma, src/rideshare/matcher_internal.cc). Lossless by construction —
  /// the differential harness's --prune_check mode asserts pruned skylines
  /// equal the reference's.
  const prune::EllipsePrefilter* prune = nullptr;
};

/// Which lemma families an index-based matcher applies. Used by the
/// ablation bench to quantify each family's contribution; production use
/// keeps everything on.
struct PruningConfig {
  /// Whole-cell pruning: Lemmas 2, 4, 6 (and 8, 10 on the DSA d-side).
  bool cell_level = true;
  /// Per-vehicle / per-edge filtering: Lemmas 1, 3, 5 (and 7, 9).
  bool edge_level = true;
  /// Lazy in-insertion pruning: Lemmas 3, 5, 7, 9, 11 + Definition 7.
  bool insertion_hooks = true;
};

class Matcher {
 public:
  virtual ~Matcher() = default;
  virtual std::string name() const = 0;
  /// Computes the full non-dominated option set for the request. Resets the
  /// oracle's cache and compdists counter for this request.
  virtual MatchResult Match(const Request& request, MatchContext& ctx) = 0;
};

}  // namespace ptar

#endif  // PTAR_RIDESHARE_MATCHER_H_
