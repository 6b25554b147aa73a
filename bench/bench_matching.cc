// End-to-end matching cost tracker. Runs the standard BA / SSA / DSA trio on
// the base configuration — on one and on four matcher workers, and on the CH
// distance backend — and writes the results to BENCH_matching.json so
// successive revisions of the hot path can be compared by tooling. The
// threads=1/threads=4 rows also double as a quick determinism smoke check:
// all non-timing columns must match between them.

#include <cstdio>

#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace ptar::bench;

  PrintBanner("bench_matching",
              "end-to-end matching cost, serial vs thread pool");

  BenchConfig cfg;
  ObsSession obs(argc, argv, "bench_matching");
  Harness harness(cfg);
  harness.AttachObs(&obs);

  std::vector<BenchRow> rows;
  PrintCostHeader("threads");
  {
    BenchConfig serial = cfg;
    serial.threads = 1;
    rows.push_back(harness.Run(serial, "threads=1"));
    PrintCostRow("1", rows.back());
  }
  {
    BenchConfig pooled = cfg;
    pooled.threads = 4;
    rows.push_back(harness.Run(pooled, "threads=4"));
    PrintCostRow("4", rows.back());
  }
  {
    BenchConfig ch = cfg;
    ch.threads = 1;
    ch.distance_backend = ptar::DistanceBackend::kCH;
    rows.push_back(harness.Run(ch, "threads=1,backend=ch"));
    PrintCostRow("1 (ch)", rows.back());
  }
  {
    BenchConfig ch = cfg;
    ch.threads = 4;
    ch.distance_backend = ptar::DistanceBackend::kCH;
    rows.push_back(harness.Run(ch, "threads=4,backend=ch"));
    PrintCostRow("4 (ch)", rows.back());
  }

  if (!WriteMatchingJson("BENCH_matching.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_matching.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_matching.json\n");
  return 0;
}
