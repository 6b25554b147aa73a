// Contraction-hierarchy benchmark: preprocessing cost, shortcut counts, and
// point-to-point / one-to-many query latency vs plain Dijkstra on both
// synthetic city generators, written to BENCH_ch.json (same schema-versioned
// envelope as the other bench emitters).
//
// The headline number is the one-to-many speedup on the large perturbed
// grid: a batch of a few dozen targets, which a Dijkstra sweep answers by
// draining most of the city while the CH downward sweep runs one upward
// search and one heap-free linear pass. The acceptance bar is >= 5x there.
//
// Startup verifies CH distances against Dijkstra (1e-6, see ch_query.h on
// floating-point association) on every benchmarked city before any timing.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/ch_graph.h"
#include "graph/ch_preprocessor.h"
#include "graph/ch_query.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "obs/json_writer.h"
#include "obs/report.h"
#include "obs/version.h"

namespace ptar {
namespace {

constexpr std::size_t kPointToPointPairs = 400;
constexpr std::size_t kBatches = 60;
constexpr std::size_t kBatchTargets = 48;  ///< Typical candidate-batch size.

struct CityCase {
  std::string name;
  RoadNetwork graph;
};

struct CityResult {
  std::string name;
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::size_t shortcuts = 0;
  double preprocess_ms = 0.0;
  double ch_memory_mib = 0.0;
  double dijkstra_p2p_us = 0.0;  ///< Mean per query.
  double ch_p2p_us = 0.0;
  double dijkstra_batch_us = 0.0;  ///< Mean per one-to-many batch.
  double ch_batch_us = 0.0;
  double p2p_speedup = 0.0;
  double batch_speedup = 0.0;
};

std::vector<VertexId> Sample(const RoadNetwork& g, std::size_t n,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<VertexId>(rng.UniformIndex(g.num_vertices())));
  }
  return out;
}

void Verify(const RoadNetwork& g, CHQuery& query, DijkstraEngine& dijkstra) {
  const std::vector<VertexId> a = Sample(g, 50, 1001);
  const std::vector<VertexId> b = Sample(g, 50, 1002);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Distance want = dijkstra.PointToPoint(a[i], b[i]);
    const Distance got = query.PointToPoint(a[i], b[i]);
    PTAR_CHECK(std::abs(got - want) <= 1e-6)
        << "CH mismatch " << a[i] << "->" << b[i] << ": " << got << " vs "
        << want;
  }
}

CityResult RunCity(const CityCase& city) {
  const RoadNetwork& g = city.graph;
  CityResult r;
  r.name = city.name;
  r.vertices = g.num_vertices();
  r.edges = g.num_edges();

  Timer pre_timer;
  const CHGraph ch = CHPreprocessor(CHPreprocessorOptions{}).Build(g);
  r.preprocess_ms = pre_timer.ElapsedMillis();
  r.shortcuts = ch.num_shortcuts();
  r.ch_memory_mib = static_cast<double>(ch.MemoryBytes()) / (1024.0 * 1024.0);

  CHQuery query(&ch);
  DijkstraEngine dijkstra(&g);
  Verify(g, query, dijkstra);

  const std::vector<VertexId> sources = Sample(g, kPointToPointPairs, 7);
  const std::vector<VertexId> targets = Sample(g, kPointToPointPairs, 8);

  Distance sink = 0.0;
  Timer timer;
  for (std::size_t i = 0; i < kPointToPointPairs; ++i) {
    sink += dijkstra.PointToPoint(sources[i], targets[i]);
  }
  r.dijkstra_p2p_us = timer.ElapsedMicros() / kPointToPointPairs;

  timer.Reset();
  for (std::size_t i = 0; i < kPointToPointPairs; ++i) {
    sink += query.PointToPoint(sources[i], targets[i]);
  }
  r.ch_p2p_us = timer.ElapsedMicros() / kPointToPointPairs;

  // One-to-many: the oracle sweep shape — one source, one candidate batch.
  std::vector<Distance> dists(kBatchTargets);
  timer.Reset();
  for (std::size_t i = 0; i < kBatches; ++i) {
    const std::vector<VertexId> batch =
        Sample(g, kBatchTargets, 100 + i);
    dijkstra.SingleSourceToTargets(sources[i], batch);
    for (const VertexId t : batch) sink += dijkstra.Dist(t);
  }
  r.dijkstra_batch_us = timer.ElapsedMicros() / kBatches;

  timer.Reset();
  for (std::size_t i = 0; i < kBatches; ++i) {
    const std::vector<VertexId> batch =
        Sample(g, kBatchTargets, 100 + i);
    query.OneToMany(sources[i], batch, dists);
    sink += dists[0];
  }
  r.ch_batch_us = timer.ElapsedMicros() / kBatches;

  if (sink == -1.0) std::printf("impossible\n");  // keep `sink` live

  r.p2p_speedup = r.dijkstra_p2p_us / r.ch_p2p_us;
  r.batch_speedup = r.dijkstra_batch_us / r.ch_batch_us;
  return r;
}

bool WriteJson(const std::string& path, const std::vector<CityResult>& rows) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("benchmark", "ch");
  w.KV("schema_version",
       static_cast<std::int64_t>(obs::kReportSchemaVersion));
  w.KV("git_describe", obs::GitDescribe());
  w.Key("rows");
  w.BeginArray();
  for (const CityResult& r : rows) {
    w.BeginObject();
    w.KV("label", r.name);
    w.KV("vertices", static_cast<std::uint64_t>(r.vertices));
    w.KV("edges", static_cast<std::uint64_t>(r.edges));
    w.KV("shortcuts", static_cast<std::uint64_t>(r.shortcuts));
    w.KV("preprocess_ms", r.preprocess_ms);
    w.KV("ch_memory_mib", r.ch_memory_mib);
    w.KV("dijkstra_p2p_us", r.dijkstra_p2p_us);
    w.KV("ch_p2p_us", r.ch_p2p_us);
    w.KV("p2p_speedup", r.p2p_speedup);
    w.KV("dijkstra_one_to_many_us", r.dijkstra_batch_us);
    w.KV("ch_one_to_many_us", r.ch_batch_us);
    w.KV("one_to_many_speedup", r.batch_speedup);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = w.TakeResult();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

int Main() {
  std::printf("=== micro_ch: contraction hierarchy vs Dijkstra ===\n");

  std::vector<CityCase> cities;
  {
    // The acceptance-bar city: large perturbed grid (~10k vertices).
    GridCityOptions opts;
    opts.rows = 100;
    opts.cols = 100;
    opts.spacing_meters = 100.0;
    opts.seed = 42;
    auto g = MakeGridCity(opts);
    PTAR_CHECK(g.ok()) << g.status();
    cities.push_back({"grid-large", std::move(g).value()});
  }
  {
    GridCityOptions opts;
    opts.rows = 40;
    opts.cols = 40;
    opts.spacing_meters = 120.0;
    opts.seed = 42;
    auto g = MakeGridCity(opts);
    PTAR_CHECK(g.ok()) << g.status();
    cities.push_back({"grid-base", std::move(g).value()});
  }
  {
    RingRadialCityOptions opts;
    opts.rings = 30;
    opts.spokes = 60;
    opts.seed = 42;
    auto g = MakeRingRadialCity(opts);
    PTAR_CHECK(g.ok()) << g.status();
    cities.push_back({"ring-radial", std::move(g).value()});
  }

  std::printf("%-12s %9s %9s %10s %12s %10s %10s %8s %12s %12s %8s\n",
              "city", "vertices", "shortcuts", "prep(ms)", "dij_p2p(us)",
              "ch_p2p(us)", "p2p_spdup", "|", "dij_1:n(us)", "ch_1:n(us)",
              "1:n_spdup");
  std::vector<CityResult> rows;
  for (const CityCase& city : cities) {
    rows.push_back(RunCity(city));
    const CityResult& r = rows.back();
    std::printf(
        "%-12s %9zu %9zu %10.1f %12.2f %10.2f %9.1fx %8s %12.1f %12.1f "
        "%7.1fx\n",
        r.name.c_str(), r.vertices, r.shortcuts, r.preprocess_ms,
        r.dijkstra_p2p_us, r.ch_p2p_us, r.p2p_speedup, "|",
        r.dijkstra_batch_us, r.ch_batch_us, r.batch_speedup);
  }

  if (!WriteJson("BENCH_ch.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_ch.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_ch.json\n");

  // The PR's acceptance bar: >= 5x one-to-many on the large grid.
  if (rows[0].batch_speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: one-to-many speedup %.2fx on %s is below the 5x "
                 "bar\n",
                 rows[0].batch_speedup, rows[0].name.c_str());
    return 1;
  }
  std::printf("one-to-many speedup on %s: %.1fx (bar: 5x)\n",
              rows[0].name.c_str(), rows[0].batch_speedup);
  return 0;
}

}  // namespace
}  // namespace ptar

int main() { return ptar::Main(); }
