// The benchmark's registry: its four workloads and every metric it reports.
//
// BENCHMARK.json at the repository root mirrors this registry; the
// bench_config_check test (config_check.py) fails when the two disagree.

#ifndef PTAR_BENCH_WORKLOADS_H_
#define PTAR_BENCH_WORKLOADS_H_

#include <cstddef>
#include <span>
#include <string>

#include "graph/distance_oracle.h"
#include "sim/engine.h"

namespace ptar::bench {

/// One fixed configuration of fleet, request stream and engine. The city is
/// shared by all workloads (see replay.h); `--seed` varies only the stream
/// and the vehicle starts.
struct WorkloadSpec {
  const char* name;
  const char* why;
  int vehicles;
  int capacity;
  std::size_t requests;
  double duration_s;  ///< Simulated arrival window.
  double peak_sharpness;
  double hotspot_prob;
  double waiting_minutes;
  double epsilon;
  DistanceBackend backend;
  PruneMode prune;
  int engine_threads;
  int wave_size;  ///< Most requests in one RunPipelined call.
};

std::span<const WorkloadSpec> Workloads();

/// Null when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower".
};

/// Printed with tracing off (BENCHMARK.json "end_to_end").
std::span<const MetricSpec> EndToEndMetrics();

/// Printed by the traced run (BENCHMARK.json "per_layer").
std::span<const MetricSpec> PerLayerMetrics();

/// The registry as one JSON object: workloads (name, why) and both metric
/// lists (name, unit, better).
std::string RegistryJson();

}  // namespace ptar::bench

#endif  // PTAR_BENCH_WORKLOADS_H_
