// Shared experiment harness for the paper-reproduction benches.
//
// Every bench binary (one per table / figure of Section VII) drives the same
// pipeline: synthetic city -> grid index -> fleet engine -> request stream
// -> shadow evaluation of BA / SSA / DSA on identical state. The harness
// caches the city and the per-cell-size grid indexes so a parameter sweep
// only rebuilds what the swept parameter actually changes.
//
// Scaling note (see DESIGN.md): the paper's testbed is the Shanghai network
// (122k vertices) with 12K-20K taxis and 1000-9000 requests; this harness
// keeps the paper's ratios on a single-core-friendly city. Absolute numbers
// differ; the qualitative relationships are what the benches reproduce.

#ifndef PTAR_BENCH_HARNESS_H_
#define PTAR_BENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "grid/grid_index.h"
#include "obs/lifecycle.h"
#include "obs/report.h"
#include "sim/engine.h"
#include "sim/workload.h"

namespace ptar::bench {

struct BenchConfig {
  // City shape (fixed per harness instance).
  int city_rows = 40;
  int city_cols = 40;
  double spacing_meters = 120.0;
  std::uint64_t city_seed = 42;

  // Swept parameters (paper Table II, scaled).
  double cell_size_meters = 300.0;
  int num_vehicles = 400;
  int vehicle_capacity = 4;
  std::size_t num_requests = 100;
  double duration_seconds = 1200.0;
  double waiting_minutes = 2.0;
  double epsilon = 0.2;
  int riders = 1;
  double verified_grid_fraction = 0.16;
  std::uint64_t workload_seed = 7;
  std::uint64_t engine_seed = 13;
  /// Matcher workers (EngineOptions::engine_threads). The harness pins
  /// one-request waves, so the thread count never changes the results:
  /// it only spreads one request's matcher slots over workers.
  int threads = 1;
  /// Oracle backend (EngineOptions::distance_backend); kCH pays a one-time
  /// preprocessing cost per engine and then fills each request row with a
  /// downward sweep instead of a Dijkstra drain.
  DistanceBackend distance_backend = DistanceBackend::kDijkstra;
  /// Candidate prefilter (EngineOptions::prune), installed in front of
  /// every matcher slot.
  PruneMode prune = PruneMode::kNone;
};

struct BenchRow {
  std::string label;
  RunStats stats;                 ///< Per-matcher aggregates (BA, SSA, DSA).
  std::vector<CommitRecord> commits;  ///< Slot 0's commits, in id order.
  std::size_t grid_memory_bytes = 0;
  std::size_t tree_memory_bytes = 0;
};

/// Optional observability side channel for a bench binary. Construct from
/// main's argv: recognizes --trace_out=FILE (record a Chrome trace of the
/// whole bench), --report_out=FILE (dump one versioned run report per
/// bench row), and --lifecycle_out=FILE / --lifecycle_sample=F (per-request
/// lifecycle JSONL, see obs/lifecycle.h); all other arguments are ignored,
/// so benches stay zero-config by default. Attach to a Harness and every
/// Run()/RunWith() adds a row; the destructor writes the requested files.
///
/// Abnormal-exit contract: the session registers atexit and fatal-signal
/// hooks (SIGINT/SIGTERM/SIGSEGV/SIGABRT) that call Flush(), so a bench
/// killed mid-sweep — or crashed by the bug the trace was meant to catch —
/// still writes whatever trace/report/lifecycle data it buffered. Flush()
/// is idempotent; the signal path is best-effort (it allocates), which is
/// the right trade for a diagnostics side channel.
class ObsSession {
 public:
  ObsSession(int argc, char* const* argv, const std::string& bench_name);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Records one bench row's report (called by Harness).
  void Add(const std::string& label, obs::RunReport report);

  /// The per-request lifecycle recorder, or null when --lifecycle_out was
  /// not given. Attach to an engine via Engine::SetLifecycleRecorder.
  obs::LifecycleRecorder* lifecycle() {
    return lifecycle_ != nullptr && lifecycle_->enabled() ? lifecycle_.get()
                                                          : nullptr;
  }

  /// Writes all requested outputs (trace, report rows, lifecycle log).
  /// Idempotent: the first call wins, later calls (destructor after an
  /// explicit flush, atexit after the destructor) are no-ops.
  void Flush();

 private:
  static void FlushActiveOnSignal(int sig);
  static void FlushActiveAtExit();

  static ObsSession* active_;  ///< The session signal/atexit hooks flush.

  std::string bench_name_;
  std::string trace_out_;
  std::string report_out_;
  std::vector<std::pair<std::string, obs::RunReport>> rows_;
  std::unique_ptr<obs::LifecycleRecorder> lifecycle_;
  bool flushed_ = false;
};

class Harness {
 public:
  explicit Harness(const BenchConfig& base);

  /// Routes every subsequent Run()/RunWith() row into `session` (which must
  /// outlive the harness). Null detaches.
  void AttachObs(ObsSession* session) { obs_ = session; }

  /// Runs one parameter point with the standard BA / SSA / DSA trio. Only
  /// the swept fields of `cfg` may differ from the base config; the city
  /// shape must match.
  BenchRow Run(const BenchConfig& cfg, const std::string& label);

  /// Same, with caller-supplied matcher slots (the first commits and is
  /// the precision/recall reference). Used by the ablation benches.
  BenchRow RunWith(const BenchConfig& cfg, const std::string& label,
                   const std::vector<MatcherFactory>& matchers);

  const RoadNetwork& graph() const { return graph_; }

 private:
  const GridIndex& GridFor(double cell_size);

  BenchConfig base_;
  RoadNetwork graph_;
  std::map<long long, std::unique_ptr<GridIndex>> grids_;  // key: size in mm
  ObsSession* obs_ = nullptr;
};

/// Prints the standard per-row report: one line per algorithm with mean
/// running time, verified vehicles, compdists, and options per request.
void PrintCostHeader(const std::string& param_name);
void PrintCostRow(const std::string& param_value, const BenchRow& row);

/// Frees benches from duplicating the figure banner boilerplate.
void PrintBanner(const std::string& experiment, const std::string& what);

/// Writes the rows as machine-readable JSON (one object per row: label,
/// served/unserved/shared counts, and per-matcher mean ms / compdists /
/// verified / options plus precision and recall) so successive runs of the
/// bench suite can be diffed by tooling. Returns false if the file cannot
/// be written.
bool WriteMatchingJson(const std::string& path,
                       const std::vector<BenchRow>& rows);

}  // namespace ptar::bench

#endif  // PTAR_BENCH_HARNESS_H_
