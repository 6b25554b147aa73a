// Oracle batching counters (BatchStats); the metrics registry folds them in
// with MergeBatchStats.

#ifndef PTAR_COMMON_COUNTERS_H_
#define PTAR_COMMON_COUNTERS_H_

#include <cstdint>

namespace ptar {

/// Instrumentation for the DistanceOracle's one-to-many searches: its
/// per-request rows and BatchDist. Tracks how well they amortize searches:
/// one sweep serving k pairs replaces k point-to-point searches. compdists
/// accounting is separate and does not depend on how a pair was produced;
/// these counters only describe *how* pairs were produced.
struct BatchStats {
  /// BatchDist invocations.
  std::uint64_t batch_calls = 0;
  /// One-to-many searches actually run: BatchDist sweeps (0-target batches
  /// run none) plus row fills (one full search from s or d).
  std::uint64_t sweeps = 0;
  /// Total pairs requested across all BatchDist calls (incl. duplicates).
  std::uint64_t pairs_requested = 0;
  /// Pairs answered from the memo cache without any search.
  std::uint64_t pairs_from_cache = 0;
  /// Pairs settled by a one-to-many sweep (each counted one compdist).
  std::uint64_t pairs_swept = 0;
  /// First reads of a pair served by a request row or its imported legs
  /// (each counted one compdist; later reads of the pair are free).
  std::uint64_t warm_hits = 0;

  void MergeFrom(const BatchStats& other) {
    batch_calls += other.batch_calls;
    sweeps += other.sweeps;
    pairs_requested += other.pairs_requested;
    pairs_from_cache += other.pairs_from_cache;
    pairs_swept += other.pairs_swept;
    warm_hits += other.warm_hits;
  }
};

}  // namespace ptar

#endif  // PTAR_COMMON_COUNTERS_H_
