// Deterministic pseudo-random number generation.
//
// Every stochastic component in the project takes an explicit seed and draws
// from an Rng instance or a SplitMix64 stream, so test and bench runs are
// reproducible bit-for-bit.

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

/// SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): a counter stepped by a
/// fixed odd gamma and passed through a finalizer. Its state is 8 bytes
/// against Rng's 2.5 KB, so one stream per vehicle stays cheap; the
/// finalizer alone is the project's hash of small keys.
class SplitMix64 {
 public:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  /// The finalizer: a bijective, well-mixed hash of `z`.
  static constexpr std::uint64_t Mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  explicit constexpr SplitMix64(std::uint64_t state) : state_(state) {}

  std::uint64_t Next() {
    state_ += kGamma;
    return Mix(state_);
  }

  /// Uniform index in [0, n): the high word of Next() * n, biased by less
  /// than n / 2^64. Requires n > 0.
  std::size_t UniformIndex(std::size_t n) {
    PTAR_DCHECK(n > 0);
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// Seed of independent stream `stream` under `base`: draw stream + 1 of the
/// SplitMix64 stream at `base`. Unlike affine forms (`seed * 3 + 1`,
/// `seed * 7 + 3`, ...), distinct (base, stream) pairs do not collide into
/// one stream.
inline std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t stream) {
  return SplitMix64::Mix(base + SplitMix64::kGamma * (stream + 1));
}

}  // namespace ptar

#endif  // PTAR_COMMON_RANDOM_H_
