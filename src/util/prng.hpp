// Deterministic pseudo-random number generation.
//
// Every simulation run in this library is a pure function of (config, seed).
// We use xoshiro256** as the workhorse generator and splitmix64 both to seed
// it and to derive independent per-replication / per-node streams, following
// the recommendation of the xoshiro authors. std::mt19937 is avoided because
// its seeding is easy to get wrong and its state is needlessly large for the
// millions of short-lived streams a parameter sweep creates.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace mstc::util {

/// One step of the splitmix64 sequence starting at `x`. Useful as a seed
/// scrambler: consecutive integers map to well-distributed 64-bit values.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives an independent stream seed from a base seed and a stream index.
/// derive_seed(s, i) != derive_seed(s, j) for i != j with overwhelming
/// probability; used to give each replication / node its own generator.
[[nodiscard]] constexpr std::uint64_t derive_seed(
    std::uint64_t base, std::uint64_t stream) noexcept {
  std::uint64_t x = base ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  (void)splitmix64(x);
  return splitmix64(x);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, adapted). Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(
      std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    // splitmix64-expand the seed as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64(x);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased via rejection sampling.
  constexpr std::uint64_t uniform_below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t uniform_int(std::int64_t lo,
                                     std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential variate with rate lambda (mean 1/lambda).
  double exponential(double lambda) noexcept;

  /// Standard normal variate (Box-Muller, one value per call; the twin
  /// value is cached).
  double normal() noexcept;

  /// Normal variate with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mstc::util
