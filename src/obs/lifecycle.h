// Per-request lifecycle recorder: a sampled, structured JSONL log of each
// request's causal timeline through the dispatcher — admission, wave,
// registry epoch, ladder level, matcher, budget accounting,
// conflict losses and re-match rounds, and the final disposition.
//
// Design rules (DESIGN.md "Lifecycle events & windowed telemetry"):
//  - One JSON object per line per request, versioned via a "schema" field
//    on every line so a log survives being split or concatenated.
//  - Sampling is a pure hash of (seed, request id) — kept deterministic so
//    the same requests are sampled at every thread count and the sampled
//    set of a production incident can be re-run locally.
//  - Record() is called only from serial sections (the engine's id-ordered
//    admission and commit passes), so the emitted byte stream is identical
//    across engine_threads values. Wall-clock fields (match_us,
//    deadline_slack_us) are emitted only when `include_timing` is set,
//    because they are the one thing that cannot be byte-reproducible.
//  - Records buffer in memory; Flush() appends them to `path`. The bench
//    ObsSession flushes on abnormal exit too, so crashed runs still leave
//    partial telemetry.

#ifndef PTAR_OBS_LIFECYCLE_H_
#define PTAR_OBS_LIFECYCLE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace ptar::obs {

/// Bump on any incompatible change to the per-line record layout; purely
/// additive fields may ride on the same version.
inline constexpr int kLifecycleSchemaVersion = 1;

/// One request's flattened lifecycle. Producers fill what they know; the
/// serializer writes every deterministic field and omits only the timing
/// overlay when disabled. String fields use the engine's stable
/// vocabularies (DegradeLevelName, Matcher::name).
struct LifecycleEvent {
  std::uint64_t request = 0;
  double submit_time = 0.0;  ///< Sim seconds (admission tick).
  /// 1-based wave the request was admitted in (shed or not); every
  /// request has one, a ProcessRequest call's is 1.
  std::uint64_t wave = 0;
  /// Registry write count (VehicleRegistry::epoch) when the committing
  /// match ran (0 when the request never matched, i.e. shed).
  std::uint64_t epoch = 0;
  std::string level;    ///< Ladder level at admission ("full", "ssa", ...).
  std::string matcher;  ///< Matcher that produced the committing result.
  std::uint64_t budget_limit = 0;  ///< Work units granted (0 = unlimited).
  std::uint64_t budget_spent = 0;  ///< Work units charged by the matcher.
  bool budget_exhausted = false;
  bool partial = false;  ///< Committing skyline was budget-truncated.
  std::uint64_t options = 0;       ///< Non-dominated options returned.
  std::uint64_t conflicts = 0;     ///< Times a lower-id request of the
                                   ///< same round won the chosen vehicle.
  std::uint64_t rematch_rounds = 0;
  bool serial_tail = false;  ///< Exhausted the re-match bound.
  std::string disposition;   ///< "served" | "unserved" | "shed".
  std::uint64_t vehicle = 0;  ///< Committed vehicle (served only).
  double pickup_dist = 0.0;
  double price = 0.0;
  // --- Timing overlay (emitted only with LifecycleOptions::include_timing;
  // wall-clock, never byte-reproducible). ---
  double match_us = 0.0;
  double deadline_slack_us = 0.0;  ///< max(0, deadline - elapsed).
};

struct LifecycleOptions {
  std::string path;  ///< Output file; empty leaves the recorder disabled.
  /// Fraction of requests recorded, decided per request id by a seeded
  /// hash (thread-count independent). 1 = all, 0 = none.
  double sample_rate = 1.0;
  std::uint64_t seed = 0;  ///< Sampling hash seed.
  /// Emit the wall-clock overlay fields. Off by default: the log is then
  /// byte-identical across equal-seed runs at any engine_threads.
  bool include_timing = false;
};

class LifecycleRecorder {
 public:
  /// Disabled recorder: every call is a cheap no-op.
  LifecycleRecorder() = default;
  explicit LifecycleRecorder(const LifecycleOptions& options);

  LifecycleRecorder(const LifecycleRecorder&) = delete;
  LifecycleRecorder& operator=(const LifecycleRecorder&) = delete;

  bool enabled() const { return !options_.path.empty(); }

  /// Whether `request_id` falls in the sampled set. Pure: depends only on
  /// the id, the seed, and the rate.
  bool Sampled(std::uint64_t request_id) const;

  /// Serializes one record into the buffer if the recorder is enabled and
  /// the id is sampled. Call only from serial engine sections so record
  /// order (and therefore the file) is deterministic.
  void Record(const LifecycleEvent& event);

  /// Appends buffered lines to the output file and clears the buffer.
  /// Idempotent between Record() calls; safe to call repeatedly (the bench
  /// session calls it from an abnormal-exit hook).
  Status Flush();

  const std::string& path() const { return options_.path; }
  std::uint64_t events_recorded() const { return events_recorded_; }
  /// Buffered-but-unflushed serialized bytes (tests).
  const std::string& buffered() const { return buffer_; }

 private:
  LifecycleOptions options_;
  std::string buffer_;
  std::uint64_t events_recorded_ = 0;
  bool file_created_ = false;  ///< First Flush truncates, later ones append.
};

/// Serializes one event as a single JSON line (no trailing newline) — the
/// exact layout Record() buffers; exposed for tests and external emitters.
std::string LifecycleEventToJsonLine(const LifecycleEvent& event,
                                     bool include_timing);

}  // namespace ptar::obs

#endif  // PTAR_OBS_LIFECYCLE_H_
