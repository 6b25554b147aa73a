// Time-stepped dynamic ridesharing engine.
//
// The engine owns the fleet (kinetic trees + grid registrations), drives
// vehicle movement at a constant speed (paper Section VII: vehicles follow
// their schedule when occupied and random-walk on road segments otherwise),
// feeds the request stream in waves to one or more matcher slots evaluated
// on an *identical* world state (slot 0 commits; shadow slots are only
// measured), and commits one option per request chosen by a configurable
// rider policy.
//
// Index maintenance (vehicle movement updates, kinetic-tree refreshes,
// re-registrations, commits) runs through a dedicated maintenance oracle so
// per-matcher compdists measure matching work only, like the paper's
// Section VII metrics. Each commit anchors that oracle's two rows at the
// committed request's pickup and dropoff with the legs the committing
// match exported from its own rows, so the commit reads the values the
// option was priced from without a search of its own, and clears that
// oracle's memo.

#ifndef PTAR_SIM_ENGINE_H_
#define PTAR_SIM_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/distance_oracle.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/windows.h"
#include "grid/grid_index.h"
#include "grid/vehicle_registry.h"
#include "kinetic/kinetic_tree.h"
#include "kinetic/tree_auditor.h"
#include "prune/ellipse_prefilter.h"
#include "rideshare/grid_scan_matcher.h"
#include "rideshare/matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/overload.h"

namespace ptar {

/// How a rider picks among the returned non-dominated options.
enum class ChoicePolicy {
  kMinPrice,   ///< Cheapest option (earliest pickup breaks ties).
  kMinTime,    ///< Earliest pickup (cheaper breaks ties).
  kBalanced,   ///< Minimal normalized price + pickup sum.
  kRandom,     ///< Uniform over the skyline (seeded).
};

/// Candidate-prefilter stage in front of the matchers (EngineOptions::
/// prune, CLI --prune=MODE).
enum class PruneMode {
  kNone,     ///< Grid lower bounds only (the paper's configuration).
  kEllipse,  ///< GeoPrune detour-ellipse prefilter (DESIGN.md §13).
};

/// Parses "none" / "ellipse" (case-sensitive, like the backend parser).
/// Returns false on anything else.
bool ParsePruneMode(const std::string& text, PruneMode* out);

struct EngineOptions {
  int num_vehicles = 500;
  int vehicle_capacity = 4;  ///< Paper default: 4 seats.
  ChoicePolicy policy = ChoicePolicy::kMinPrice;
  std::uint64_t seed = 13;
  /// When non-empty, vehicle i starts at start_vertices[i] instead of a
  /// seed-derived random vertex, and the list's size overrides
  /// num_vehicles. Replay files (src/check) use this so that removing one
  /// vehicle during shrinking does not reshuffle every other start.
  std::vector<VertexId> start_vertices;
  /// Matcher workers (DESIGN.md §7, §12), which also walk idle vehicles
  /// during each advance. A wave of requests is matched
  /// against the registry as the round found it, one (request, matcher
  /// slot) pair per unit of work spread over this many workers, then
  /// committed serially in request-id order. Committed assignments,
  /// RunStats, and the lifecycle log are identical at every thread count
  /// for a fixed wave_size (the `--serial_check` contract); only execution
  /// overlaps.
  int engine_threads = 1;
  /// Requests admitted per wave. 0 = auto: 1 with one worker (the paper's
  /// one-request-at-a-time online setting), else 2 * engine_threads.
  /// NOTE: the auto value depends on engine_threads, so cross-thread-count
  /// determinism comparisons must pin wave_size explicitly (serial_check
  /// replays with the parallel run's resolved value).
  int wave_size = 0;
  /// Bounded re-match: a request whose chosen vehicle was taken by an
  /// earlier (lower-id) concurrent request re-matches against the
  /// committed world at most this many times; survivors then match
  /// serially against live state. Every round commits at least one
  /// request, so the pipeline never livelocks regardless of this bound.
  int max_rematch_rounds = 3;
  /// Exact shortest-path engine behind every oracle. kCH builds one
  /// contraction hierarchy at engine construction (counted in
  /// "ch/preprocess_us") shared read-only by all oracles; queries then use
  /// bidirectional searches and downward sweeps instead of Dijkstra.
  /// Matching results are equivalent up to floating-point association of
  /// path sums.
  DistanceBackend distance_backend = DistanceBackend::kDijkstra;
  /// Per-request work budgets, deadlines, and the degradation ladder
  /// (sim/overload.h). Disabled by default (no budget, no deadline): the
  /// engine then hands matchers no budget at all and behavior is unchanged.
  OverloadOptions overload;
  /// Windowed service-quality telemetry (obs/windows.h): per-sim-time-
  /// window request/shed/conflict counts, ladder occupancy, and commit
  /// latency, exported as the run report's "timeseries" block (schema v4)
  /// and — when overload.slo_p99_us is set — fed back into the overload
  /// ladder at window boundaries. On by default (60 s windows); set
  /// window_seconds <= 0 to disable.
  obs::TelemetryOptions telemetry;
  /// Audits the committed vehicle's kinetic tree (and, on findings, repairs
  /// it) after every commit — one exact distance per leg, so it is on by
  /// default only in debug builds. Findings/repairs surface as "audit/*"
  /// counters; release runs can instead call Engine::AuditFleet on demand.
  bool audit_after_commit =
#ifndef NDEBUG
      true;
#else
      false;
#endif
  /// GeoPrune candidate prefilter (src/prune). kEllipse builds one
  /// EllipsePrefilter at engine construction and installs it on every
  /// MatchContext, so all matcher slots (including ladder fallbacks)
  /// interleave calibrated-Euclidean ellipse checks with the grid lower
  /// bounds.
  /// Lossless: committed assignments and skylines are identical to kNone
  /// (the differential harness's --prune_check mode enforces this).
  PruneMode prune = PruneMode::kNone;
  /// Per-vehicle kinetic-tree branch cap (CLI --tree_max_branches). The
  /// default keeps every valid schedule — the paper's c.S_tr — so results
  /// are exactly the unbounded tree's. A finite cap bounds per-vehicle
  /// fan-out with best-branch retention (active branch + the
  /// (total, first-leg) skyline always kept); dropped branches surface as
  /// the "tree/branches_dropped" and "tree/cap_hits" run counters.
  std::size_t tree_max_branches = KineticTree::kUnlimitedBranches;
};

/// Aggregated per-matcher measurements across a run.
struct MatcherAggregate {
  std::string name;
  MatchStats totals;
  std::uint64_t requests = 0;
  std::uint64_t options_sum = 0;
  double precision_sum = 0.0;  ///< vs. slot 0's round-0 option set.
  double recall_sum = 0.0;
  /// Per-request matching latency distribution. A fixed log-bucket
  /// histogram (O(1) memory, mergeable), not a sample list: percentiles
  /// are exact to one bucket width (~19%).
  obs::LatencyHistogram latency_ms;

  double MeanMillis() const {
    return requests == 0 ? 0.0 : totals.elapsed_micros / 1e3 / requests;
  }
  double MeanVerified() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(totals.verified_vehicles) / requests;
  }
  double MeanCompdists() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(totals.compdists) / requests;
  }
  double MeanOptions() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(options_sum) / requests;
  }
  double MeanPrecision() const {
    return requests == 0 ? 1.0 : precision_sum / requests;
  }
  double MeanRecall() const {
    return requests == 0 ? 1.0 : recall_sum / requests;
  }
};

struct RunStats {
  std::vector<MatcherAggregate> matchers;
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  /// Requests that first rode with another rider since the previous call
  /// returned (a request counts once, when it first shares), so summing
  /// over calls gives one run's count.
  std::uint64_t shared = 0;
  /// Requests refused outright at overload level 3 (counted in unserved).
  std::uint64_t shed_requests = 0;
  /// Requests whose committing result was budget-truncated
  /// (MatchResult::complete == false on slot 0).
  std::uint64_t partial_skylines = 0;
  /// Requests processed at each degradation level (index = DegradeLevel).
  std::array<std::uint64_t, kNumDegradeLevels> ladder_requests{};

  // --- Wave pipeline. ---
  /// Waves the stream was processed in.
  std::uint64_t waves = 0;
  /// Conflict events: a request's chosen vehicle was already committed to
  /// a lower-id request of the same wave round.
  std::uint64_t conflicts = 0;
  /// Re-matches after a conflict (rounds 1..max_rematch_rounds).
  std::uint64_t rematches = 0;
  /// Requests that exhausted the re-match bound and fell back to a serial
  /// match against live state.
  std::uint64_t serial_rematches = 0;

  double SharingRate() const {
    return served == 0 ? 0.0 : static_cast<double>(shared) / served;
  }
};

/// One request's final disposition in the request-parallel pipeline, in the
/// exact shape the `--serial_check` mode compares: a parallel run and its
/// engine_threads=1 replay must produce equal records for every request.
struct CommitRecord {
  RequestId request = 0;
  bool served = false;
  bool shed = false;
  VehicleId vehicle = kInvalidVehicle;  ///< Committed vehicle when served.
  double pickup_dist = 0.0;
  double price = 0.0;

  friend bool operator==(const CommitRecord&, const CommitRecord&) = default;
};

/// Builds one matcher instance per worker for one slot, so concurrently
/// running workers never share a matcher object. Matchers are
/// configuration-only in Match() (no mutable state), hence results do not
/// depend on which worker instance served a request.
using MatcherFactory = std::function<std::unique_ptr<Matcher>()>;

class Engine {
 public:
  /// The graph and grid must outlive the engine. Vehicles start at
  /// uniformly random vertices unless options.start_vertices pins them.
  Engine(const RoadNetwork* graph, const GridIndex* grid,
         const EngineOptions& options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Accessors. ---
  std::vector<KineticTree>& fleet() { return fleet_; }
  const std::vector<KineticTree>& fleet() const { return fleet_; }
  VehicleRegistry& registry() { return registry_; }
  const GridIndex& grid() const { return *grid_; }
  double now() const { return now_; }

  /// Sum of the fleet's kinetic-tree memory (Table IV's second row).
  std::size_t KineticTreeMemoryBytes() const;

  /// Current degradation level (kFull unless overload control is enabled
  /// and the ladder has moved).
  DegradeLevel degrade_level() const { return overload_.level(); }

  /// Audits the whole fleet plus the registry aggregates against the
  /// trusted maintenance oracle (kinetic/tree_auditor.h). On-demand
  /// release-build counterpart of EngineOptions::audit_after_commit.
  ///
  /// Safe to call from another thread while RunPipelined is in flight: the
  /// audit takes the engine's quiesce lock, so it observes the fleet only
  /// at a wave boundary — a quiesced epoch where no matcher worker is
  /// running and no commit is half-applied — and never a torn tree. When no
  /// wave runs the lock is uncontended.
  AuditReport AuditFleet();

  /// Installs `factory(slot)` as the fault hook on every matching oracle
  /// of later calls: one oracle per (worker, matcher slot), and each call
  /// invokes the factory once per oracle with its slot (0 = committing) —
  /// but never on the maintenance oracle, which stays a trusted distance
  /// source for commits, refreshes, and audits (a hooked slot 0 exports no
  /// legs, so its commits fill their own rows). A factory (rather than one
  /// hook) keeps per-hook state unshared across concurrently-used oracles,
  /// and the slot argument lets callers exempt chosen slots (the
  /// differential harness keeps its reference matcher clean) by returning
  /// a null hook. Pass nullptr to uninstall: the next call clears every
  /// matching oracle's hook.
  void SetFaultHookFactory(
      std::function<DistanceOracle::FaultHook(std::size_t slot)> factory) {
    fault_hook_factory_ = std::move(factory);
  }

  /// Unified run metrics (DESIGN.md §9): wave phase histograms
  /// ("pipeline/..."), per-slot per-request distributions
  /// ("matcher/<name>/...", "matcher/<name>#k/..." for the k-th slot of one
  /// name), oracle batching counters (committing slot:
  /// "pipeline/match/batch/...", shadow slots: "matcher/<name>/batch/..."),
  /// GeoPrune and kinetic-tree cap counters ("prune/...", "tree/..."), and
  /// thread-pool queue stats ("pool/..."). Accumulates across calls.
  /// Counts RunStats already holds (waves, conflicts, ladder occupancy,
  /// sheds, partial skylines) are not repeated here. Names follow the
  /// determinism convention of obs::MetricsRegistry: only "pool/" entries
  /// and the timing-suffixed ones may differ between equal-seed runs.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Windowed service-quality telemetry, accumulated across runs (engine
  /// sim time never rewinds). Export() feeds the report's v4 "timeseries"
  /// block.
  const obs::WindowedTelemetry& telemetry() const { return telemetry_; }

  /// Attaches (or, with nullptr, detaches) a per-request lifecycle
  /// recorder; not owned, must outlive the runs it observes. Events are
  /// recorded only from the serial admission and commit passes, so the
  /// recorded stream is identical at every engine_threads value.
  void SetLifecycleRecorder(obs::LifecycleRecorder* recorder) {
    lifecycle_ = recorder;
  }

  // --- Simulation. ---

  /// Advances the world to absolute time `time` (seconds), vehicle by
  /// vehicle (DESIGN.md §12). Vehicles idle at the call's start walk on
  /// the pool; the calling thread drives the busy ones and then moves each
  /// empty vehicle's registry cell in id order, so the fleet and registry
  /// are identical at every engine_threads value.
  void AdvanceTo(double time);

  struct RequestOutcome {
    std::vector<MatchResult> results;  ///< One per matcher, same order.
    bool served = false;
    Option chosen;
    /// Degradation level this request was processed at.
    DegradeLevel degrade_level = DegradeLevel::kFull;

    /// True iff the request was refused unmatched.
    bool shed() const { return degrade_level == DegradeLevel::kShed; }
    /// Whether slot `s` actually ran. At degraded overload levels only
    /// slot 0 runs (via an engine-owned fallback matcher); shed requests
    /// run nothing. Unevaluated slots hold default-constructed results and
    /// must be excluded from statistics.
    bool Evaluated(std::size_t s) const {
      return s == 0 ? !shed() : degrade_level == DegradeLevel::kFull;
    }
    /// OK normally; kResourceExhausted when shed.
    Status status() const {
      return shed() ? Status::ResourceExhausted(
                          "overload ladder at shed level: request refused "
                          "unmatched")
                    : Status::OK();
    }
  };

  /// Runs `request` as a one-request wave (the paper's online setting):
  /// advances to its submit time, repairs stale state, evaluates every
  /// borrowed matcher as one slot on the identical world, and commits
  /// the option chosen (by policy) from slot 0's result set.
  RequestOutcome ProcessRequest(const Request& request,
                                std::span<Matcher* const> matchers);

  /// The engine's request loop (DESIGN.md §12). The stream is processed in
  /// waves of ResolvedWaveSize() requests: admission (overload shed +
  /// level capture, in request-id order) → advance world to the wave's
  /// latest submit time → refresh stale trees → rebuild dirty aggregates
  /// → match every (request, slot) pair on engine_threads workers → commit
  /// serially in request-id order. Slot 0 is `make_matcher`'s matcher and
  /// commits; each `shadow_matchers` factory adds a slot that is measured
  /// on round 0 at the full ladder level only (precision / recall against
  /// slot 0, Table III). Every factory is called engine_threads times,
  /// serially, before any matching. When two requests picked the same
  /// vehicle, the lower id commits and the loser re-matches slot 0 in the
  /// next round (at most max_rematch_rounds times, then a serial tail
  /// against live state).
  ///
  /// Determinism: committed assignments depend on wave_size but not on
  /// engine_threads — nothing writes while workers match, arbitration is
  /// id-ordered, rng/ladder draws happen serially in id order, and idle
  /// walks draw from per-vehicle streams (AdvanceTo) — except
  /// when a wall-clock deadline (overload.deadline_ms > 0) is configured,
  /// which is nondeterministic by design. `commit_log`, when non-null,
  /// receives one record per request, sorted by request id.
  RunStats RunPipelined(std::span<const Request> requests,
                        const MatcherFactory& make_matcher,
                        std::vector<CommitRecord>* commit_log = nullptr,
                        const std::vector<MatcherFactory>& shadow_matchers =
                            {});

  /// Wave size actually used: options.wave_size, or the auto value (1 with
  /// one worker, else 2 * engine_threads) when 0.
  int ResolvedWaveSize() const;

 private:
  /// Where a vehicle is between vertices, and its idle-walk stream. A
  /// vehicle on an edge drives route[pos] -> route[pos + 1]; one standing
  /// at route[pos] has taken no edge yet (edge_len is kNoEdge and
  /// edge_progress 0). Only the vehicle's own advance touches it, so
  /// idle vehicles advance concurrently.
  struct VehicleRuntime {
    static constexpr Distance kNoEdge =
        std::numeric_limits<Distance>::quiet_NaN();

    std::vector<VertexId> route;  ///< Vertex path being driven.
    std::size_t pos = 0;          ///< Index of the current vertex in route.
    /// Length of the edge being driven, read from the graph once when the
    /// vehicle takes it; kNoEdge after a crossing and wherever route or
    /// pos is written.
    Distance edge_len = kNoEdge;
    double edge_progress = 0.0;  ///< Meters advanced into the edge.
    double budget = 0.0;         ///< Unspent movement distance.
    /// Draws each idle walk's next edge; seeded from (EngineOptions::seed,
    /// vehicle id), so a walk does not depend on any other vehicle.
    SplitMix64 walk{0};
  };

  /// Everything one (worker, matcher slot) pair owns.
  struct SlotCtx {
    Matcher* matcher = nullptr;  ///< The call's full-level matcher.
    std::unique_ptr<DistanceOracle> oracle;
    WorkBudget budget;
  };
  /// Everything one matcher worker owns. Nothing here is shared between
  /// workers, so the parallel phase reads only the world the round found
  /// and writes only pre-assigned per-request entries.
  struct WorkerCtx {
    std::vector<SlotCtx> slots;
    SsaMatcher ssa{0.16};       ///< Slot 0's kSsa fallback (paper default).
    GridScanMatcher grid_scan;  ///< Slot 0's kGridScan fallback.
  };

  KineticTree::DistFn MaintenanceDistFn();
  /// The one request loop behind RunPipelined and ProcessRequest.
  /// `matchers[w][s]` runs slot s on worker w (slot 0 commits). When
  /// `outcomes` is non-null it receives every request's final outcome, in
  /// disposition order.
  RunStats RunWaves(std::span<const Request> requests,
                    const std::vector<std::vector<Matcher*>>& matchers,
                    std::vector<CommitRecord>* commit_log,
                    std::vector<RequestOutcome>* outcomes);
  /// Feeds the finished request's signals to the overload controller and
  /// records the degrade/* transition counters and deadline slack.
  /// `worker_deadline_hit` is the request's own budget-latched wall
  /// deadline signal (see OverloadController::Observe).
  void ObserveOverload(double match_elapsed_micros, bool budget_exhausted,
                       bool worker_deadline_hit = false);
  /// Telemetry window for sim time `t` (null when telemetry is disabled).
  /// When `t` opens a new window and an SLO is configured, the just-closed
  /// (newest) window's p99 commit latency and shed rate first feed
  /// OverloadController::ObserveWindow — always from a serial section, so
  /// ladder moves stay ordered even though the signal is wall-clock.
  obs::WindowExport* TelemetryWindowFor(double t);
  /// Post-commit single-vehicle audit (EngineOptions::audit_after_commit);
  /// repairs on findings and bumps the audit/* counters.
  void AuditAfterCommit(VehicleId v);
  Distance ArcWeight(VertexId u, VertexId v) const;
  /// The matcher and advance worker pool: null with one engine thread,
  /// else created on first use with engine_threads workers.
  ThreadPool* Pool();
  /// Runs vehicle v through every tick budget of one AdvanceTo call. A
  /// tick that ends mid-edge is one compare and one add; the rest go to
  /// TickVehicle.
  void AdvanceVehicle(VehicleId v, std::span<const double> ticks);
  /// Finishes vehicle v's tick once its budget reaches the end of its
  /// edge or it has taken no edge: crosses vertices (serving stops and
  /// replanning, or drawing an idle walk's next edge from its own stream)
  /// and takes each next edge, reading its length once, until the budget
  /// ends mid-edge or the vehicle cannot move. An empty vehicle's crossing
  /// touches only its tree and runtime; AdvanceTo moves its registry cell
  /// after the call's walks.
  void TickVehicle(VehicleId v);
  /// Serves co-located stops, fixes the vehicle's registry membership, and
  /// replans its driving route. Called after any change to a non-empty
  /// kinetic tree; registers the vehicle as empty if its tree empties.
  void SyncAfterTreeChange(VehicleId v);
  void ReRegister(VehicleId v);
  void RefreshStaleTrees();
  const Option* ChooseOption(std::span<const Option> options);
  /// Commits `option` for `request`; `legs` are the committing match's
  /// exported row values (an empty export only costs row fills).
  void CommitChoice(const Request& request, const Option& option,
                    const RequestLegs& legs);

  /// Builds the contraction hierarchy when `options` selects the CH
  /// backend (null otherwise); *out_micros receives the build time.
  static std::unique_ptr<CHGraph> MaybeBuildCH(const RoadNetwork* graph,
                                               const EngineOptions& options,
                                               double* out_micros);

  const RoadNetwork* graph_;
  const GridIndex* grid_;
  EngineOptions options_;
  /// Initial placement and the random rider policy. Idle walks draw from
  /// each vehicle's VehicleRuntime::walk instead.
  Rng rng_;
  double now_ = 0.0;

  std::vector<KineticTree> fleet_;
  std::vector<VehicleRuntime> runtimes_;
  VehicleRegistry registry_;

  double ch_preprocess_micros_ = 0.0;
  /// Shared hierarchy for the kCH backend (null on kDijkstra); declared
  /// before the oracles, which capture a pointer to it at construction.
  std::unique_ptr<CHGraph> ch_graph_;
  /// Engine bookkeeping, uncounted. A commit anchors it at the committed
  /// request with the committing match's legs; it fills a row only for a
  /// pair outside them.
  DistanceOracle maintenance_oracle_;
  /// Re-invoked for every oracle that matching may touch (see
  /// SetFaultHookFactory); null when no faults are injected.
  std::function<DistanceOracle::FaultHook(std::size_t)> fault_hook_factory_;

  OverloadController overload_;
  /// GeoPrune prefilter, built once at construction when options_.prune is
  /// kEllipse and installed on every MatchContext (null otherwise).
  std::unique_ptr<prune::EllipsePrefilter> prune_filter_;
  /// Matcher and idle-walk workers; created by Pool() on the first wave or
  /// advance when options.engine_threads > 1.
  std::unique_ptr<ThreadPool> pool_;
  /// Per-(worker, slot) matching state, created on the first call and kept
  /// across calls, so each oracle labels components and allocates its
  /// workspace and rows once per engine rather than once per call. Slots
  /// grow when a call brings more of them.
  std::vector<WorkerCtx> worker_ctxs_;
  /// Held across each whole wave (admission through commit) and by
  /// AuditFleet. Between waves — and whenever no wave runs — the fleet,
  /// registry, and metrics are quiesced, which is the only state an outside
  /// thread may observe.
  std::mutex quiesce_mu_;

  /// Riders aboard who have shared a ride, erased at their dropoff; the
  /// engine's lifetime count of requests that shared, and the part of it
  /// earlier calls already reported as RunStats::shared.
  std::unordered_set<RequestId> shared_onboard_;
  std::uint64_t shared_total_ = 0;
  std::uint64_t shared_reported_ = 0;

  obs::MetricsRegistry metrics_;
  /// Per-window service-quality deltas (EngineOptions::telemetry).
  obs::WindowedTelemetry telemetry_;
  /// Per-request lifecycle recorder; not owned, null when detached.
  obs::LifecycleRecorder* lifecycle_ = nullptr;
  /// max(0, deadline - elapsed) per request; only fed when a wall-clock
  /// deadline is configured (timing-suffixed, determinism-exempt).
  obs::LatencyHistogram* deadline_slack_us_;
};

}  // namespace ptar

#endif  // PTAR_SIM_ENGINE_H_
