// Deterministic pseudo-random infrastructure for the testbed.
//
// Every stochastic element of the simulation (browser dispatch latency,
// plugin noise, capture jitter, granularity-regime epochs, ...) draws from a
// Rng seeded from the experiment configuration, so each figure and table in
// the paper regenerates bit-for-bit.
//
// The generator is xoshiro256** (Blackman & Vigna), a small, fast, high
// quality PRNG; we implement it ourselves so results do not depend on the
// standard library's unspecified distribution algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/time.h"

namespace bnm::sim {

/// xoshiro256** pseudo-random generator with distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Derive an independent stream from a parent, keyed by a label; used to
  /// give each (browser, method, run) its own substream so adding one
  /// experiment never perturbs another.
  Rng fork(std::string_view label) const;
  /// The stream fork(prefix + label) gives, without building that string.
  Rng fork(std::string_view prefix, std::string_view label) const;

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform01();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (no cached spare: keeps forks stateless).
  double normal(double mean, double stddev);
  /// Log-normal parameterized by the *target* median and a shape sigma
  /// (sigma is the stddev of the underlying normal). Median of the result
  /// is exactly `median`. Used for heavy-tailed browser overheads.
  double lognormal_med(double median, double sigma);
  /// Exponential with the given mean.
  double exponential(double mean);
  /// Bernoulli trial.
  bool chance(double p);

  /// Duration helpers (all arguments in milliseconds for readability at the
  /// calibration-table call sites).
  Duration uniform_ms(double lo_ms, double hi_ms);
  Duration normal_ms(double mean_ms, double stddev_ms);
  Duration lognormal_med_ms(double median_ms, double sigma);
  Duration exponential_ms(double mean_ms);

 private:
  explicit Rng(const std::array<std::uint64_t, 4>& state) : s_{state} {}
  static std::uint64_t splitmix64(std::uint64_t& x);

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace bnm::sim
