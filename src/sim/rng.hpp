// Seeded random-number streams for reproducible simulations.
//
// Every stochastic component (loss models, jitter, experiment harness)
// draws from its own Rng, derived from a master seed plus a stream id, so
// adding a component never perturbs the draws of another — runs stay
// reproducible as the simulator grows.
//
// Uniform draws are inline (canonical_double) and equal libstdc++'s
// std::uniform_real_distribution<double> bit for bit, so every
// fixed-seed run is the same as when they went through the library.
//
// An Rng keeps its seed and builds its mt19937_64 (2.5 KB, 312 seeding
// multiplies) on the first draw: a stream that never draws, such as a
// link whose loss comes from the explorer's oracle, costs a seed copy.
// The seeding is out of line and cold, so an inline draw pays one
// predictable branch; every drawn sequence is the eagerly seeded one.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>

namespace pftk::sim {

/// splitmix64 finalizer: bijective 64-bit mixing whose outputs pass
/// statistical tests even for sequential inputs. The single audited
/// primitive behind every seed derivation in the tree (Rng::derive, the
/// campaign's retry-seed perturbation, the explorer's state digests).
/// Inline: a state digest mixes about 120 words.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Derives the seed of child stream `stream` from a master `seed`:
/// nearby (seed, stream) pairs yield unrelated child seeds. This is the
/// one derivation path shared by Rng::derive and the campaign
/// seed-perturbation, so both stay in lockstep if the mixing ever
/// changes.
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t seed,
                                               std::uint64_t stream) noexcept;

/// std::generate_canonical<double, 53> of one 64-bit engine word, as
/// libstdc++ computes it: u / 2^64 rounded to nearest, and a word that
/// rounds to 2^64 clamped to the largest double below 1. The two 32-bit
/// halves convert exactly and their sum rounds once, as converting u
/// does, without that conversion's branch on the top bit; scaling by
/// 2^-64 is exact, so it equals libstdc++'s division.
[[nodiscard]] inline double canonical_double(std::uint64_t u) noexcept {
  const double d = static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
                   static_cast<double>(static_cast<std::uint32_t>(u));
  const double r = d * 0x1p-64;
  return r >= 1.0 ? 0x1.fffffffffffffp-1 : r;
}

/// A seeded mt19937_64 with convenience distributions, seeded on the
/// first draw.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : seed_(seed) {}

  /// Derives an independent child stream; mixing uses splitmix64 so
  /// nearby (seed, stream) pairs yield unrelated sequences.
  [[nodiscard]] static Rng derive(std::uint64_t seed, std::uint64_t stream);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() { return canonical_double(engine()()); }

  /// Uniform double in [lo, hi): uniform_real_distribution's
  /// canonical * (hi - lo) + lo.
  /// @throws std::invalid_argument if hi < lo.
  [[nodiscard]] double uniform(double lo, double hi) {
    if (hi < lo) {
      throw std::invalid_argument("Rng::uniform: hi < lo");
    }
    if (hi == lo) {
      return lo;
    }
    return uniform() * (hi - lo) + lo;
  }

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return uniform() < p;
  }

  /// Exponential with the given mean (> 0).
  /// @throws std::invalid_argument if mean <= 0.
  [[nodiscard]] double exponential(double mean);

  /// Uniform integer in [lo, hi] inclusive.
  /// @throws std::invalid_argument if hi < lo.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Raw 64-bit draw.
  [[nodiscard]] std::uint64_t next_u64() { return engine()(); }

 private:
  std::mt19937_64& engine() {
    if (!engine_) [[unlikely]] {
      seed_engine();
    }
    return *engine_;
  }
  [[gnu::cold, gnu::noinline]] void seed_engine();

  std::uint64_t seed_;
  std::optional<std::mt19937_64> engine_;  ///< empty until the first draw
};

}  // namespace pftk::sim
