#include "ptar_bench/workloads.h"

#include <array>

#include "obs/json_writer.h"

namespace ptar::bench {
namespace {

// Every workload runs SSA (fraction 0.16), the min-price rider policy, no
// overload control (so no request is shed or truncated) and kinetic trees
// capped at 64 branches (replay.cc explains the cap).
constexpr std::array<WorkloadSpec, 4> kWorkloads = {{
    {.name = "rush-dijkstra",
     .why = "Two rush peaks on Dijkstra: oracle sweeps and conflict "
            "re-matches do most of the work, and the peaks make queueing "
            "show in p99 latency.",
     .vehicles = 1000,
     .capacity = 4,
     .requests = 600,
     .duration_s = 300.0,
     .peak_sharpness = 2.0,
     .hotspot_prob = 0.7,
     .waiting_minutes = 3.0,
     .epsilon = 0.5,
     .backend = DistanceBackend::kDijkstra,
     .prune = PruneMode::kNone,
     .engine_threads = 4,
     .wave_size = 16},
    {.name = "rush-ch",
     .why = "The rush stream shape and fleet on CH, at 1000 requests: the "
            "oracle shrinks so grid walk, tree insertion, snapshot and commit "
            "show; a Dijkstra-only change must not move it.",
     .vehicles = 1000,
     .capacity = 4,
     .requests = 1000,
     .duration_s = 300.0,
     .peak_sharpness = 2.0,
     .hotspot_prob = 0.7,
     .waiting_minutes = 3.0,
     .epsilon = 0.5,
     .backend = DistanceBackend::kCH,
     .prune = PruneMode::kNone,
     .engine_threads = 4,
     .wave_size = 16},
    {.name = "pooled-day",
     .why = "Write-heavy: 6 seats and high sharing grow deep trees, so commit "
            "and refresh take about half of busy time; waves of 4 keep "
            "conflicts rare.",
     .vehicles = 300,
     .capacity = 6,
     .requests = 1200,
     .duration_s = 3600.0,
     .peak_sharpness = 0.0,
     .hotspot_prob = 0.7,
     .waiting_minutes = 5.0,
     .epsilon = 0.6,
     .backend = DistanceBackend::kCH,
     .prune = PruneMode::kNone,
     .engine_threads = 4,
     .wave_size = 4},
    {.name = "fleet10k-sparse",
     .why = "10k vehicles and uniform demand: advancing the fleet dominates "
            "and oracle work is light; the only workload configured with "
            "ellipse pruning.",
     .vehicles = 10000,
     .capacity = 4,
     .requests = 1500,
     .duration_s = 4500.0,
     .peak_sharpness = 0.0,
     .hotspot_prob = 0.0,
     .waiting_minutes = 2.0,
     .epsilon = 0.2,
     .backend = DistanceBackend::kCH,
     .prune = PruneMode::kEllipse,
     .engine_threads = 4,
     .wave_size = 8},
}};

constexpr std::array<MetricSpec, 11> kEndToEnd = {{
    {"setup_s", "s", "lower"},
    {"throughput_rps", "req/s", "higher"},
    {"latency_p50_ms", "ms", "lower"},
    {"latency_p99_ms", "ms", "lower"},
    {"slo_frac", "fraction", "higher"},
    {"answered_frac", "fraction", "higher"},
    {"served_frac", "fraction", "higher"},
    {"mean_price", "price", "lower"},
    {"mean_options", "options/req", "higher"},
    {"peak_rss_mb", "MB", "lower"},
    {"tree_mb", "MB", "lower"},
}};

constexpr std::array<MetricSpec, 54> kPerLayer = {{
    // driver: the open-loop generator and its queue.
    {"driver.queue_wait_p50_ms", "ms", "lower"},
    {"driver.queue_wait_p99_ms", "ms", "lower"},
    {"driver.backlog_max", "requests", "lower"},
    // sim: Engine::AdvanceTo and Engine::RunPipelined.
    {"sim.wave_p50_ms", "ms", "lower"},
    {"sim.wave_p99_ms", "ms", "lower"},
    {"sim.advance_share", "fraction", "lower"},
    {"sim.serial_share", "fraction", "lower"},
    {"sim.busy_coverage", "fraction", "higher"},
    {"sim.conflicts_per_req", "count/req", "lower"},
    {"sim.rematches_per_req", "count/req", "lower"},
    {"sim.serial_tail_per_req", "count/req", "lower"},
    {"sim.match_calls_per_req", "count/req", "lower"},
    {"sim.worker_util", "fraction", "higher"},
    {"sim.traced_throughput_rps", "req/s", "higher"},
    // rideshare: Matcher::Match.
    {"rideshare.match_p50_ms", "ms", "lower"},
    {"rideshare.match_p99_ms", "ms", "lower"},
    {"rideshare.verified_per_req", "count/req", "lower"},
    {"rideshare.options_per_match", "count", "higher"},
    {"rideshare.option_yield", "fraction", "higher"},
    {"rideshare.partial_frac", "fraction", "lower"},
    {"rideshare.pickup_mean_m", "m", "lower"},
    {"rideshare.lemma1_hits", "count/req", "higher"},
    {"rideshare.lemma2_hits", "count/req", "higher"},
    {"rideshare.lemma3_hits", "count/req", "higher"},
    {"rideshare.lemma4_hits", "count/req", "higher"},
    {"rideshare.lemma5_hits", "count/req", "higher"},
    {"rideshare.lemma6_hits", "count/req", "higher"},
    {"rideshare.lemma7_hits", "count/req", "higher"},
    {"rideshare.lemma8_hits", "count/req", "higher"},
    {"rideshare.lemma9_hits", "count/req", "higher"},
    {"rideshare.lemma10_hits", "count/req", "higher"},
    {"rideshare.lemma11_hits", "count/req", "higher"},
    // grid: cell walk counts from MatchStats, index and registry size.
    {"grid.scanned_cells_per_req", "count/req", "lower"},
    {"grid.pruned_cells_per_req", "count/req", "higher"},
    {"grid.pruned_vehicles_per_req", "count/req", "higher"},
    {"grid.index_mb", "MB", "lower"},
    {"grid.registry_mb", "MB", "lower"},
    // graph: DistanceOracle work inside matching, plus a standalone probe.
    {"graph.compdists_per_req", "count/req", "lower"},
    {"graph.sweeps_per_req", "count/req", "lower"},
    {"graph.pairs_swept_per_req", "count/req", "lower"},
    {"graph.warm_hits_per_req", "count/req", "higher"},
    {"graph.batch_calls_per_req", "count/req", "lower"},
    {"graph.cache_hits_per_req", "count/req", "higher"},
    {"graph.p2p_us", "us", "lower"},
    {"graph.sweep64_us", "us", "lower"},
    // prune: the GeoPrune ellipse prefilter.
    {"prune.checked_per_req", "count/req", "lower"},
    {"prune.pruned_share", "fraction", "higher"},
    // kinetic: tree sizes sampled after every wave.
    {"kinetic.branches_p50", "branches", "lower"},
    {"kinetic.branches_p99", "branches", "lower"},
    {"kinetic.branches_max", "branches", "lower"},
    {"kinetic.assigned_mean", "vehicles", "higher"},
    {"kinetic.tree_mb_end", "MB", "lower"},
    {"kinetic.branches_dropped", "count", "lower"},
    {"kinetic.cap_hits", "count", "lower"},
}};

void WriteMetrics(obs::JsonWriter& w, std::span<const MetricSpec> metrics) {
  w.BeginArray();
  for (const MetricSpec& m : metrics) {
    w.BeginObject();
    w.KV("name", m.name);
    w.KV("unit", m.unit);
    w.KV("better", m.better);
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace

std::span<const WorkloadSpec> Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::span<const MetricSpec> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricSpec> PerLayerMetrics() { return kPerLayer; }

std::string RegistryJson() {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("workloads");
  w.BeginArray();
  for (const WorkloadSpec& spec : kWorkloads) {
    w.BeginObject();
    w.KV("name", spec.name);
    w.KV("why", spec.why);
    w.EndObject();
  }
  w.EndArray();
  w.Key("end_to_end");
  WriteMetrics(w, kEndToEnd);
  w.Key("per_layer");
  WriteMetrics(w, kPerLayer);
  w.EndObject();
  return w.TakeResult();
}

}  // namespace ptar::bench
