// Deterministic pseudo-random number generation.
//
// Every stochastic component in the project takes an explicit seed and draws
// from an Rng instance, so test and bench runs are reproducible bit-for-bit.

#ifndef PTAR_COMMON_RANDOM_H_
#define PTAR_COMMON_RANDOM_H_

#include <cstdint>
#include <random>

#include "common/logging.h"

namespace ptar {

/// Seeded PRNG wrapper around std::mt19937_64 with the handful of draw
/// shapes the project needs. Copyable so call sites can fork substreams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    PTAR_DCHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t UniformIndex(std::size_t n) {
    PTAR_DCHECK(n > 0);
    return static_cast<std::size_t>(
        std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_));
  }

  /// Uniform real in [lo, hi).
  double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal draw with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw; p is clamped to [0, 1].
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derives an independent child stream; successive calls yield different
  /// streams.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ptar

#endif  // PTAR_COMMON_RANDOM_H_
