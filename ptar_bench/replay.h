// The open-loop dispatch driver.
//
// Every workload uses one fixed city: a 100x100 perturbed grid (100 m
// spacing, city seed 42, ~10k vertices) indexed with 400 m grid cells. The
// run seed derives the request stream and the vehicle starts; the engine
// receives only the generated inputs.
//
// Riders are independent, so arrivals follow their schedule whatever the
// engine is doing (an open loop). Request i is due at
//   t0 + submit_time_i * seconds / duration_s,
// which keeps the stream's burst shape at a mean offered rate of
// requests / seconds. The driver batches consecutive requests into waves
// and hands Engine::RunPipelined exactly one wave per call. A wave closes
// when it holds wave_size requests (at its last request's due time) or
// when its first request has waited 250 ms, whichever comes first.
// Wave boundaries follow from the schedule alone, so commits do not depend
// on timing or thread count. A call starts when its wave closes or when the
// previous call returns, whichever is later; before it, the driver calls
// Engine::AdvanceTo itself, which makes the pipeline's own advance a no-op.
// A request's latency runs from its due time to the return of the call that
// committed it.

#ifndef PTAR_BENCH_REPLAY_H_
#define PTAR_BENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ptar_bench/workloads.h"

namespace ptar::bench {

struct BenchConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 25.0;  ///< Wall time the schedule is spread over.
  /// Traced run: record spans and report per-layer metrics. Empty = the
  /// untraced run, which reports the end-to-end metrics.
  std::string trace_out;
};

struct BenchResult {
  bool correct = false;
  std::vector<std::string> problems;  ///< Failed correctness checks.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< Shed or budget-truncated requests.
  /// FNV-1a over the id-sorted commit log; equal for equal seeds at any
  /// thread count, traced or not.
  std::uint64_t commit_digest = 0;
  /// End-to-end metrics (untraced) or per-layer metrics (traced), by name.
  std::map<std::string, double> metrics;
  std::string self_time_table;  ///< Traced run only.
};

BenchResult RunBench(const BenchConfig& config);

}  // namespace ptar::bench

#endif  // PTAR_BENCH_REPLAY_H_
