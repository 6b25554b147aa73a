// Named metric counters used to report the paper's cost measures
// (compdists, verified vehicles, pruning hits, ...).

#ifndef PTAR_COMMON_COUNTERS_H_
#define PTAR_COMMON_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "common/logging.h"

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
  /// First reads of a pair served by a request row (each counted one
  /// compdist; later reads of the pair are free).
  std::uint64_t warm_hits = 0;

  double MeanPairsPerSweep() const {
    return sweeps == 0 ? 0.0
                       : static_cast<double>(pairs_swept) /
                             static_cast<double>(sweeps);
  }

  void MergeFrom(const BatchStats& other) {
    batch_calls += other.batch_calls;
    sweeps += other.sweeps;
    pairs_requested += other.pairs_requested;
    pairs_from_cache += other.pairs_from_cache;
    pairs_swept += other.pairs_swept;
    warm_hits += other.warm_hits;
  }
};

/// A bag of named monotonically increasing counters. Not thread-safe; each
/// matcher / engine owns its own set. Debug builds enforce the ownership
/// contract: the first mutating call pins the set to the calling thread and
/// every later mutation DCHECKs it, so a refactor that starts mutating a
/// shared set from pool workers fails loudly instead of silently racing.
/// Legitimate cross-thread hand-off (merge after a pool join) goes through
/// AdoptByCurrentThread(). The thread-safe aggregation path is
/// obs::MetricsRegistry::MergeCounterSet, which each joining owner calls
/// from the merging thread.
class CounterSet {
 public:
  void Add(const std::string& name, std::uint64_t delta = 1) {
    AssertOwnedByCurrentThread();
    counters_[name] += delta;
  }

  std::uint64_t Get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  void Reset() {
    AssertOwnedByCurrentThread();
    counters_.clear();
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  /// Merges another set into this one by summing matching names. Both sets
  /// must be quiescent: the writer threads that filled `other` must have
  /// been joined before the merge.
  void MergeFrom(const CounterSet& other) {
    AssertOwnedByCurrentThread();
    for (const auto& [name, value] : other.counters_) {
      counters_[name] += value;
    }
  }

  /// Re-homes the set to the calling thread after a legitimate hand-off
  /// (e.g. a worker-filled set merged on the main thread post-join).
  void AdoptByCurrentThread() {
#ifndef NDEBUG
    owner_ = std::this_thread::get_id();
#endif
  }

 private:
  void AssertOwnedByCurrentThread() {
#ifndef NDEBUG
    if (owner_ == std::thread::id{}) {
      owner_ = std::this_thread::get_id();
    } else {
      PTAR_DCHECK(owner_ == std::this_thread::get_id())
          << "CounterSet mutated from a second thread without "
             "AdoptByCurrentThread(); CounterSet is not thread-safe";
    }
#endif
  }

  std::map<std::string, std::uint64_t> counters_;
#ifndef NDEBUG
  std::thread::id owner_{};  ///< Pinned by the first mutation.
#endif
};

}  // namespace ptar

#endif  // PTAR_COMMON_COUNTERS_H_
