#include "sim/random.h"

#include <cmath>
#include <numbers>

namespace bnm::sim {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// FNV-1a 64-bit, used to mix fork labels into the seed stream. Byte-serial,
// so hashing b after a (passing a's hash as `h`) equals hashing a + b.
std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}
}  // namespace

std::uint64_t Rng::splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  // Seed expansion per the xoshiro authors' recommendation.
  std::uint64_t x = seed;
  for (auto& w : s_) w = splitmix64(x);
}

Rng Rng::fork(std::string_view label) const { return fork(label, {}); }

Rng Rng::fork(std::string_view prefix, std::string_view label) const {
  std::uint64_t x = s_[0] ^ rotl(s_[3], 23) ^ fnv1a(label, fnv1a(prefix));
  std::array<std::uint64_t, 4> st;
  for (auto& w : st) w = splitmix64(x);
  return Rng{st};
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 random bits into the mantissa -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection-free modulo is fine here: span is tiny next to 2^64 for all
  // call sites, so the bias is immeasurable; determinism is what matters.
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::normal(double mean, double stddev) {
  // Box-Muller. Guard u1 away from 0 so log() is finite.
  double u1 = uniform01();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal_med(double median, double sigma) {
  return median * std::exp(normal(0.0, sigma));
}

double Rng::exponential(double mean) {
  double u = uniform01();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

bool Rng::chance(double p) { return uniform01() < p; }

Duration Rng::uniform_ms(double lo_ms, double hi_ms) {
  return Duration::from_millis_f(uniform(lo_ms, hi_ms));
}

Duration Rng::normal_ms(double mean_ms, double stddev_ms) {
  return Duration::from_millis_f(normal(mean_ms, stddev_ms));
}

Duration Rng::lognormal_med_ms(double median_ms, double sigma) {
  return Duration::from_millis_f(lognormal_med(median_ms, sigma));
}

Duration Rng::exponential_ms(double mean_ms) {
  return Duration::from_millis_f(exponential(mean_ms));
}

}  // namespace bnm::sim
