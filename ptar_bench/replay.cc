#include "ptar_bench/replay.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "graph/ch_preprocessor.h"
#include "graph/generators.h"
#include "grid/grid_index.h"
#include "ptar_bench/layer_trace.h"
#include "ptar_bench/request_stream.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"

namespace ptar::bench {
namespace {

constexpr double kSsaFraction = 0.16;  // Paper default.
constexpr double kGridCellMeters = 400.0;
constexpr double kSloMillis = 1000.0;
/// A wave that has not filled closes this long after its first request was
/// due (replay.h), so a lull in arrivals cannot hold requests back.
constexpr double kMaxBatchSeconds = 0.25;
/// The untraced run sets up this many times and reports the median, so one
/// slow build (page faults, a busy neighbour) does not move setup_s.
constexpr int kSetupRepeats = 3;
constexpr int kProbeSamples = 200;
constexpr std::size_t kFleetSamples = 32;
constexpr std::size_t kProbeTargets = 64;
constexpr double kBytesPerMB = 1e6;
/// Every workload caps kinetic trees at 64 branches, with best-branch
/// retention. Uncapped trees fan out factorially on some streams; one such
/// vehicle then dominates a run's time and memory, so the numbers would
/// depend on which seed happened to produce it.
constexpr std::size_t kTreeMaxBranches = 64;

/// SplitMix64 finalizer: independent, well-mixed sub-seeds of the run seed.
std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

RoadNetwork MakeCity() {
  GridCityOptions copts;
  copts.rows = 100;
  copts.cols = 100;
  copts.spacing_meters = 100.0;
  copts.seed = 42;
  auto city = MakeGridCity(copts);
  PTAR_CHECK(city.ok()) << city.status();
  return std::move(city).value();
}

EngineOptions MakeEngineOptions(const WorkloadSpec& spec, std::uint64_t seed) {
  EngineOptions eopts;
  eopts.num_vehicles = spec.vehicles;
  eopts.vehicle_capacity = spec.capacity;
  eopts.policy = ChoicePolicy::kMinPrice;
  eopts.seed = DeriveSeed(seed, 2);
  eopts.engine_threads = spec.engine_threads;
  eopts.wave_size = spec.wave_size;
  eopts.distance_backend = spec.backend;
  eopts.prune = spec.prune;
  eopts.tree_max_branches = kTreeMaxBranches;
  eopts.audit_after_commit = false;  // The fleet is audited once, at the end.
  return eopts;
}

/// The grid index and the engine over it (the engine keeps a pointer to the
/// grid, so both live on the heap).
struct World {
  std::unique_ptr<GridIndex> grid;
  std::unique_ptr<Engine> engine;
};

/// Builds a fresh world and returns its set-up time in seconds: the grid
/// index plus the Engine constructor, which includes CH preprocessing and
/// prefilter calibration.
double SetUp(const RoadNetwork& graph, const EngineOptions& eopts,
             World* world) {
  world->engine.reset();
  world->grid.reset();
  const Clock::time_point start = Clock::now();
  auto grid = GridIndex::Build(&graph, {.cell_size_meters = kGridCellMeters});
  PTAR_CHECK(grid.ok()) << grid.status();
  world->grid = std::make_unique<GridIndex>(std::move(grid).value());
  world->engine = std::make_unique<Engine>(&graph, world->grid.get(), eopts);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
template <typename T>
double Percentile(std::vector<T> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * values.size());
  const std::size_t index =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return static_cast<double>(values[std::min(index, values.size() - 1)]);
}

double PeakRssMB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss * 1024.0 / kBytesPerMB;  // ru_maxrss is in KiB.
}

std::uint64_t Fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t CommitDigest(const std::vector<CommitRecord>& log) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const CommitRecord& r : log) {
    const unsigned char flags =
        static_cast<unsigned char>(r.served) | (r.shed ? 2 : 0);
    hash = Fnv1a(hash, &r.request, sizeof(r.request));
    hash = Fnv1a(hash, &flags, sizeof(flags));
    hash = Fnv1a(hash, &r.vehicle, sizeof(r.vehicle));
    hash = Fnv1a(hash, &r.pickup_dist, sizeof(r.pickup_dist));
    hash = Fnv1a(hash, &r.price, sizeof(r.price));
  }
  return hash;
}

/// RunStats summed over every RunPipelined call of the replay.
struct StreamTotals {
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t shed = 0;
  std::uint64_t partial = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t serial_rematches = 0;
  std::uint64_t options_sum = 0;   ///< Skyline sizes of first matches.
  std::uint64_t first_matches = 0;

  void Add(const RunStats& s) {
    served += s.served;
    unserved += s.unserved;
    shed += s.shed_requests;
    partial += s.partial_skylines;
    conflicts += s.conflicts;
    rematches += s.rematches;
    serial_rematches += s.serial_rematches;
    for (const MatcherAggregate& m : s.matchers) {
      options_sum += m.options_sum;
      first_matches += m.requests;
    }
  }
};

/// Fleet state sampled between waves, in one pass over the fleet: tree
/// memory always, branch counts of non-empty vehicles in the traced run.
struct FleetSamples {
  double tree_bytes_sum = 0.0;
  std::vector<std::uint32_t> branches;  ///< One per non-empty vehicle.
  std::uint64_t assigned_sum = 0;       ///< Non-empty vehicles, summed.
  std::uint64_t samples = 0;

  void Sample(const std::vector<KineticTree>& fleet, bool traced) {
    ++samples;
    std::size_t bytes = 0;
    for (const KineticTree& tree : fleet) {
      bytes += tree.MemoryBytes();
      if (!traced || tree.IsEmpty()) continue;
      ++assigned_sum;
      branches.push_back(static_cast<std::uint32_t>(tree.num_branches()));
    }
    tree_bytes_sum += static_cast<double>(bytes);
  }
};

std::vector<std::string> CheckOutputs(const std::vector<CommitRecord>& log,
                                      const StreamTotals& totals,
                                      std::size_t num_requests,
                                      int num_vehicles, Engine& engine) {
  std::vector<std::string> problems;
  if (log.size() != num_requests) {
    problems.push_back("commit log has " + std::to_string(log.size()) +
                       " records for " + std::to_string(num_requests) +
                       " requests");
  }
  std::uint64_t served = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const CommitRecord& r = log[i];
    if (r.request != i) {
      problems.push_back("commit log is not one record per request id (at " +
                         std::to_string(i) + ")");
      break;
    }
    if (!r.served) continue;
    ++served;
    if (r.vehicle >= static_cast<VehicleId>(num_vehicles) ||
        !std::isfinite(r.price) || r.price < 0.0 ||
        !std::isfinite(r.pickup_dist) || r.pickup_dist < 0.0) {
      problems.push_back("request " + std::to_string(r.request) +
                         " was served an invalid option");
    }
  }
  if (served != totals.served ||
      totals.served + totals.unserved != num_requests) {
    problems.push_back("served/unserved counts disagree with the commit log");
  }
  const AuditReport audit = engine.AuditFleet();
  for (const std::string& finding : audit.findings) {
    problems.push_back("fleet audit: " + finding);
  }
  return problems;
}

struct ProbeResult {
  double p2p_us = 0.0;
  double sweep64_us = 0.0;
};

/// Times DistanceOracle::Dist and a 64-target BatchDist from request starts
/// to vehicle locations on a bench-owned oracle, with the cache cleared
/// before each call.
ProbeResult ProbeOracle(const RoadNetwork& graph, DistanceBackend backend,
                        const std::vector<Request>& requests,
                        const std::vector<KineticTree>& fleet,
                        std::uint64_t seed) {
  std::unique_ptr<CHGraph> ch;
  if (backend == DistanceBackend::kCH) {
    ch = std::make_unique<CHGraph>(CHPreprocessor().Build(graph));
  }
  DistanceOracle oracle(&graph, ch.get());
  Rng rng(DeriveSeed(seed, 3));
  std::vector<double> p2p;
  std::vector<double> sweep;
  std::vector<VertexId> targets(kProbeTargets);
  std::vector<Distance> out;
  for (int i = 0; i < kProbeSamples; ++i) {
    const VertexId source = requests[rng.UniformIndex(requests.size())].start;
    const VertexId target = fleet[rng.UniformIndex(fleet.size())].location();
    for (VertexId& t : targets) {
      t = fleet[rng.UniformIndex(fleet.size())].location();
    }
    oracle.ClearCache();
    Clock::time_point start = Clock::now();
    oracle.Dist(source, target);
    p2p.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                            start)
                      .count());
    oracle.ClearCache();
    start = Clock::now();
    oracle.BatchDist(source, targets, &out);
    sweep.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                              start)
                        .count());
  }
  return {.p2p_us = Median(p2p), .sweep64_us = Median(sweep)};
}

/// Keeps CPUs busy while the driver waits for arrivals. On a shared virtual
/// machine a vCPU left idle for a few hundred milliseconds runs the next
/// burst of work up to twice as slowly, so an open loop with idle gaps would
/// measure the host's idle policy rather than the engine. The driver thread
/// and `threads` spinners busy-wait together, and only between calls into
/// the engine.
class CpuWarmer {
 public:
  /// Waking the spinners takes a fraction of a millisecond, so shorter
  /// waits, too short for a vCPU to go idle anyway, leave them asleep.
  static constexpr Clock::duration kMinWarmWait = std::chrono::milliseconds(2);

  explicit CpuWarmer(int threads) {
    for (int i = 0; i < threads; ++i) threads_.emplace_back([this] { Spin(); });
  }
  ~CpuWarmer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      spinning_ = false;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  CpuWarmer(const CpuWarmer&) = delete;
  CpuWarmer& operator=(const CpuWarmer&) = delete;

  /// Busy-waits until `deadline`.
  void WaitUntil(Clock::time_point deadline) {
    const bool warm = deadline - Clock::now() > kMinWarmWait;
    if (warm) Set(true);
    while (Clock::now() < deadline) {
    }
    if (warm) Set(false);
  }

 private:
  void Set(bool spinning) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      spinning_ = spinning;
    }
    if (spinning) cv_.notify_all();
  }

  void Spin() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || spinning_.load(); });
        if (stop_) return;
      }
      while (spinning_.load(std::memory_order_relaxed)) {
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                   ///< Guarded by mu_.
  std::atomic<bool> spinning_{false};  ///< Written under mu_.
  std::vector<std::thread> threads_;   ///< Last: the threads use the above.
};

/// One RunPipelined call: requests [first, first + count), handed to the
/// engine no earlier than `close_s` seconds into the run.
struct Wave {
  std::size_t first;
  std::size_t count;
  double close_s;
};

/// Batches the schedule into waves (replay.h). The partition depends only on
/// the due times, never on how fast the engine runs.
std::vector<Wave> MakeWaves(const std::vector<double>& due_s,
                            std::size_t wave_size, double max_batch_s) {
  std::vector<Wave> waves;
  for (std::size_t first = 0; first < due_s.size();) {
    const double deadline = due_s[first] + max_batch_s;
    std::size_t end = first + 1;
    while (end < due_s.size() && end - first < wave_size &&
           due_s[end] <= deadline) {
      ++end;
    }
    const bool full = end - first == wave_size;
    waves.push_back({first, end - first, full ? due_s[end - 1] : deadline});
    first = end;
  }
  return waves;
}

/// What the replay loop measured.
struct Replay {
  StreamTotals totals;
  FleetSamples fleet;
  std::vector<CommitRecord> log;      ///< Sorted by request id.
  std::vector<double> latency_ms;     ///< Due → return of the call.
  std::vector<double> queue_wait_ms;  ///< Due → start of the call.
  std::vector<double> wave_ms;        ///< RunPipelined call time.
  double busy_s = 0.0;                ///< Σ AdvanceTo + RunPipelined.
  double driver_busy_s = 0.0;  ///< Everything but waiting for arrivals.
  std::size_t backlog_max = 0;
};

/// Runs the open loop (replay.h) from time origin `t0`. `trace`, when
/// non-null, receives one WaveSpan per call; `factory` must then be its
/// wrapping factory.
Replay RunReplay(Engine& engine, const std::vector<Request>& requests,
                 const WorkloadSpec& spec, double seconds,
                 const MatcherFactory& factory, Clock::time_point t0,
                 LayerTrace* trace) {
  const std::size_t n = requests.size();
  const double scale = seconds / spec.duration_s;
  std::vector<double> due_s(n);
  for (std::size_t i = 0; i < n; ++i) {
    due_s[i] = requests[i].submit_time * scale;
  }
  const std::vector<Wave> waves = MakeWaves(
      due_s, static_cast<std::size_t>(spec.wave_size), kMaxBatchSeconds);
  // About kFleetSamples samples per run: a pass over a 10k-vehicle fleet
  // after every wave would take over 1% of the engine's busy time.
  const std::size_t sample_every =
      std::max<std::size_t>(1, waves.size() / kFleetSamples);

  Replay r;
  r.log.reserve(n);
  r.latency_ms.resize(n);
  r.queue_wait_ms.resize(n);
  // With the driver thread, as many CPUs stay busy as the engine uses.
  CpuWarmer warmer(spec.engine_threads - 1);
  std::uint64_t wave = 0;
  for (const auto [first, count, close_s] : waves) {
    const std::size_t last = first + count - 1;
    ++wave;
    if (trace != nullptr) trace->BeginWave(wave);
    warmer.WaitUntil(t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(close_s)));
    const Clock::time_point start = Clock::now();
    engine.AdvanceTo(requests[last].submit_time);
    const Clock::time_point advanced = Clock::now();
    std::vector<CommitRecord> wave_log;
    r.totals.Add(engine.RunPipelined(
        std::span<const Request>(requests).subspan(first, count), factory,
        &wave_log));
    const Clock::time_point end = Clock::now();

    const double start_s = std::chrono::duration<double>(start - t0).count();
    const double end_s = std::chrono::duration<double>(end - t0).count();
    for (std::size_t i = first; i <= last; ++i) {
      r.latency_ms[i] = (end_s - due_s[i]) * 1e3;
      r.queue_wait_ms[i] = (start_s - due_s[i]) * 1e3;
    }
    const std::size_t due_by_start = static_cast<std::size_t>(
        std::upper_bound(due_s.begin(), due_s.end(), start_s) -
        due_s.begin());
    r.backlog_max = std::max(r.backlog_max, due_by_start - first);
    r.busy_s += std::chrono::duration<double>(end - start).count();
    r.wave_ms.push_back(
        std::chrono::duration<double, std::milli>(end - advanced).count());
    r.log.insert(r.log.end(), wave_log.begin(), wave_log.end());
    if (wave % sample_every == 0) {
      r.fleet.Sample(engine.fleet(), trace != nullptr);
    }
    if (trace != nullptr) {
      trace->AddWave({.wave = wave,
                      .requests = count,
                      .start_ns = NanosSince(t0, start),
                      .advance_end_ns = NanosSince(t0, advanced),
                      .end_ns = NanosSince(t0, end)});
    }
    r.driver_busy_s +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  std::sort(r.log.begin(), r.log.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.request < b.request;
            });
  return r;
}

/// Every end-to-end metric but setup_s.
std::map<std::string, double> EndToEnd(const Replay& r, std::uint64_t failed) {
  const double n = static_cast<double>(r.log.size());
  // A request meets the latency objective when it is answered within
  // kSloMillis and not shed or truncated. Partial skylines are not
  // attributed to a request by RunStats, so each one is charged against
  // the objective.
  std::uint64_t slo_ok = 0;
  for (std::size_t i = 0; i < r.log.size(); ++i) {
    if (r.latency_ms[i] <= kSloMillis && !r.log[i].shed) ++slo_ok;
  }
  slo_ok -= std::min(slo_ok, r.totals.partial);
  double price_sum = 0.0;
  for (const CommitRecord& c : r.log) {
    if (c.served) price_sum += c.price;
  }
  const double served = static_cast<double>(r.totals.served);
  std::map<std::string, double> m;
  m["throughput_rps"] = n / r.busy_s;
  m["latency_p50_ms"] = Percentile(r.latency_ms, 50);
  m["latency_p99_ms"] = Percentile(r.latency_ms, 99);
  m["slo_frac"] = slo_ok / n;
  m["answered_frac"] = (n - failed) / n;
  m["served_frac"] = served / n;
  m["mean_price"] = served > 0 ? price_sum / served : 0.0;
  m["mean_options"] = r.totals.first_matches > 0
                          ? static_cast<double>(r.totals.options_sum) /
                                r.totals.first_matches
                          : 0.0;
  m["peak_rss_mb"] = PeakRssMB();
  m["tree_mb"] = r.fleet.tree_bytes_sum / r.fleet.samples / kBytesPerMB;
  return m;
}

std::map<std::string, double> PerLayer(const Replay& r,
                                       const LayerTrace& trace,
                                       const WorkloadSpec& spec,
                                       const World& world,
                                       const ProbeResult& probe) {
  const Engine& engine = *world.engine;
  const double n = static_cast<double>(r.log.size());
  const std::vector<MatchSpan> spans = trace.MatchSpans();
  MatchStats work;
  std::uint64_t options = 0;
  std::uint64_t partial_spans = 0;
  std::vector<double> match_ms;
  for (const MatchSpan& s : spans) {
    work.Accumulate(s.stats);
    options += s.options;
    partial_spans += s.complete ? 0 : 1;
    match_ms.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  const LayerTotals t = trace.Totals();
  const double verified = static_cast<double>(work.verified_vehicles);
  const auto counter = [&](const char* name) {
    return static_cast<double>(engine.metrics().Counter(
        std::string("pipeline/match/batch/") + name));
  };
  // The pickup of the chosen option varies a fifth from seed to seed, with
  // how the fleet's shared routes happen to form, so it is reported here,
  // without a bound, rather than as an end-to-end metric.
  double pickup_sum = 0.0;
  for (const CommitRecord& c : r.log) {
    if (c.served) pickup_sum += c.pickup_dist;
  }
  std::uint64_t dropped = 0;
  std::uint64_t cap_hits = 0;
  for (const KineticTree& tree : engine.fleet()) {
    dropped += tree.branches_dropped();
    cap_hits += tree.cap_hits();
  }

  std::map<std::string, double> m;
  m["driver.queue_wait_p50_ms"] = Percentile(r.queue_wait_ms, 50);
  m["driver.queue_wait_p99_ms"] = Percentile(r.queue_wait_ms, 99);
  m["driver.backlog_max"] = static_cast<double>(r.backlog_max);
  m["sim.wave_p50_ms"] = Percentile(r.wave_ms, 50);
  m["sim.wave_p99_ms"] = Percentile(r.wave_ms, 99);
  m["sim.advance_share"] = t.advance_ns / t.busy_ns;
  m["sim.serial_share"] = (t.pipelined_ns - t.match_union_ns) / t.busy_ns;
  m["sim.busy_coverage"] = t.busy_ns / (r.driver_busy_s * 1e9);
  m["sim.conflicts_per_req"] = r.totals.conflicts / n;
  m["sim.rematches_per_req"] = r.totals.rematches / n;
  m["sim.serial_tail_per_req"] = r.totals.serial_rematches / n;
  m["sim.match_calls_per_req"] = spans.size() / n;
  m["sim.worker_util"] =
      t.match_union_ns > 0
          ? t.match_ns / (spec.engine_threads * t.match_union_ns)
          : 0.0;
  m["sim.traced_throughput_rps"] = n / r.busy_s;
  m["rideshare.match_p50_ms"] = Percentile(match_ms, 50);
  m["rideshare.match_p99_ms"] = Percentile(match_ms, 99);
  m["rideshare.verified_per_req"] = verified / n;
  m["rideshare.options_per_match"] =
      spans.empty() ? 0.0 : static_cast<double>(options) / spans.size();
  m["rideshare.option_yield"] = verified > 0 ? options / verified : 0.0;
  m["rideshare.partial_frac"] = partial_spans / n;
  m["rideshare.pickup_mean_m"] =
      r.totals.served > 0 ? pickup_sum / r.totals.served : 0.0;
  for (std::size_t k = 1; k <= LemmaCounters::kNumLemmas; ++k) {
    m["rideshare.lemma" + std::to_string(k) + "_hits"] =
        work.lemma_hits[k] / n;
  }
  m["grid.scanned_cells_per_req"] = work.scanned_cells / n;
  m["grid.pruned_cells_per_req"] = work.pruned_cells / n;
  m["grid.pruned_vehicles_per_req"] = work.pruned_vehicles / n;
  m["grid.index_mb"] = world.grid->MemoryBytes() / kBytesPerMB;
  m["grid.registry_mb"] =
      world.engine->registry().MemoryBytes() / kBytesPerMB;
  m["graph.compdists_per_req"] = work.compdists / n;
  m["graph.sweeps_per_req"] = counter("sweeps") / n;
  m["graph.pairs_swept_per_req"] = counter("pairs_swept") / n;
  m["graph.warm_hits_per_req"] = counter("warm_hits") / n;
  m["graph.batch_calls_per_req"] = counter("batch_calls") / n;
  m["graph.cache_hits_per_req"] = counter("pairs_from_cache") / n;
  m["graph.p2p_us"] = probe.p2p_us;
  m["graph.sweep64_us"] = probe.sweep64_us;
  m["prune.checked_per_req"] = work.ellipse_checked / n;
  m["prune.pruned_share"] =
      work.ellipse_pruned + verified > 0
          ? work.ellipse_pruned / (work.ellipse_pruned + verified)
          : 0.0;
  m["kinetic.branches_p50"] = Percentile(r.fleet.branches, 50);
  m["kinetic.branches_p99"] = Percentile(r.fleet.branches, 99);
  m["kinetic.branches_max"] = Percentile(r.fleet.branches, 100);
  m["kinetic.assigned_mean"] =
      r.fleet.samples > 0
          ? static_cast<double>(r.fleet.assigned_sum) / r.fleet.samples
          : 0.0;
  m["kinetic.tree_mb_end"] = engine.KineticTreeMemoryBytes() / kBytesPerMB;
  m["kinetic.branches_dropped"] = static_cast<double>(dropped);
  m["kinetic.cap_hits"] = static_cast<double>(cap_hits);
  return m;
}

}  // namespace

BenchResult RunBench(const BenchConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  const bool traced = !config.trace_out.empty();
  const RoadNetwork graph = MakeCity();
  const std::vector<Request> requests =
      MakeRequestStream(graph, spec, DeriveSeed(config.seed, 1));
  const EngineOptions eopts = MakeEngineOptions(spec, config.seed);

  World world;
  std::vector<double> setup_s = {SetUp(graph, eopts, &world)};
  Engine& engine = *world.engine;

  const Clock::time_point t0 = Clock::now();
  LayerTrace trace(
      static_cast<std::size_t>(spec.wave_size) * (eopts.max_rematch_rounds + 2),
      t0);
  const MatcherFactory ssa = [] {
    return std::make_unique<SsaMatcher>(kSsaFraction);
  };
  const MatcherFactory factory =
      traced ? trace.WrapFactory(ssa, spec.engine_threads) : ssa;
  const Replay replay = RunReplay(engine, requests, spec, config.seconds,
                                  factory, t0, traced ? &trace : nullptr);

  BenchResult result;
  result.attempted = requests.size();
  result.failed = replay.totals.shed + replay.totals.partial;
  result.commit_digest = CommitDigest(replay.log);
  result.problems = CheckOutputs(replay.log, replay.totals, requests.size(),
                                 eopts.num_vehicles, engine);
  if (!traced) {
    result.metrics = EndToEnd(replay, result.failed);
    // The remaining set-ups come after the replay, so that the median spans
    // the whole run rather than one moment of a shared host.
    for (int i = 1; i < kSetupRepeats; ++i) {
      setup_s.push_back(SetUp(graph, eopts, &world));
    }
    result.metrics["setup_s"] = Median(setup_s);
  } else {
    const StreamTotals& totals = replay.totals;
    if (trace.Totals().match_spans != requests.size() - totals.shed +
                                          totals.rematches +
                                          totals.serial_rematches) {
      result.problems.push_back(
          "traced Match calls disagree with the engine's re-match counts");
    }
    const ProbeResult probe = ProbeOracle(graph, spec.backend, requests,
                                          engine.fleet(), config.seed);
    result.metrics = PerLayer(replay, trace, spec, world, probe);
    result.self_time_table = trace.SelfTimeTable();
    if (!trace.WriteChromeTrace(config.trace_out)) {
      result.problems.push_back("cannot write trace file " +
                                config.trace_out);
    }
  }
  result.correct = result.problems.empty();
  return result;
}

}  // namespace ptar::bench
