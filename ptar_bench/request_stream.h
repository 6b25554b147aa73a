// The benchmark's own request generator.
//
// The stream is generated here rather than by the program's workload
// generator so that the inputs stay fixed while the program changes, and so
// that the seed varies only what should vary between runs:
//  - the demand hotspots are part of the city (fixed centres for every
//    seed), and each seed draws different origins and destinations from
//    them;
//  - arrival times are stratified: request i arrives at F^-1((i + u_i) / n)
//    for the workload's arrival-intensity CDF F and a seeded u_i in [0, 1).
//    The burst shape, and so the offered load at every point of the run, is
//    the same for every seed; only the exact instants move.

#ifndef PTAR_BENCH_REQUEST_STREAM_H_
#define PTAR_BENCH_REQUEST_STREAM_H_

#include <cstdint>
#include <vector>

#include "graph/road_network.h"
#include "kinetic/request.h"
#include "ptar_bench/workloads.h"

namespace ptar::bench {

/// Requests with ids 0..n-1, sorted by submit time within [0, duration_s).
std::vector<Request> MakeRequestStream(const RoadNetwork& graph,
                                       const WorkloadSpec& spec,
                                       std::uint64_t seed);

}  // namespace ptar::bench

#endif  // PTAR_BENCH_REQUEST_STREAM_H_
