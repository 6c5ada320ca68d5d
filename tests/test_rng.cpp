#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>

#include "exp/campaign/retry_policy.hpp"
#include "sim/rng.hpp"

namespace pftk::sim {
namespace {

TEST(Rng, SplitMix64IsBijectiveMixing) {
  // Deterministic, and sequential inputs land far apart.
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 64; ++x) {
    outputs.insert(splitmix64(x));
  }
  EXPECT_EQ(outputs.size(), 64u);
}

TEST(Rng, DeriveStreamSeedIsDeterministicAndWellSpread) {
  EXPECT_EQ(derive_stream_seed(7, 3), derive_stream_seed(7, 3));
  // Nearby (seed, stream) pairs must yield pairwise-distinct children —
  // the whole point of the shared derivation seam.
  std::set<std::uint64_t> children;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (std::uint64_t stream = 0; stream < 8; ++stream) {
      children.insert(derive_stream_seed(seed, stream));
    }
  }
  EXPECT_EQ(children.size(), 64u);
}

TEST(Rng, DeriveMatchesDeriveStreamSeed) {
  // Rng::derive is defined as seeding from derive_stream_seed; the two
  // must stay in lockstep if the mixing ever changes.
  Rng derived = Rng::derive(42, 5);
  Rng reseeded(derive_stream_seed(42, 5));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(derived.next_u64(), reseeded.next_u64());
  }
}

TEST(Rng, CampaignRetrySeedsShareTheDerivationPath) {
  // The campaign's per-attempt seed perturbation rides the same audited
  // seam (attempt 0 = the item seed itself).
  EXPECT_EQ(exp::campaign::perturbed_seed(99, 0), 99u);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    EXPECT_EQ(exp::campaign::perturbed_seed(99, attempt),
              derive_stream_seed(99, static_cast<std::uint64_t>(attempt)));
  }
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, DerivedStreamsAreIndependent) {
  Rng a = Rng::derive(7, 0);
  Rng b = Rng::derive(7, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, DeriveIsDeterministic) {
  Rng a = Rng::derive(7, 3);
  Rng b = Rng::derive(7, 3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
  EXPECT_DOUBLE_EQ(r.uniform(4.0, 4.0), 4.0);
  EXPECT_THROW((void)r.uniform(3.0, 2.0), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyIsRoughlyP) {
  Rng r(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += r.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanIsRight) {
  Rng r(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += r.exponential(2.5);
  }
  EXPECT_NEAR(sum / n, 2.5, 0.05);
  EXPECT_THROW((void)r.exponential(0.0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = r.uniform_int(3, 5);
    EXPECT_GE(x, 3u);
    EXPECT_LE(x, 5u);
    saw_lo = saw_lo || x == 3;
    saw_hi = saw_hi || x == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW((void)r.uniform_int(5, 3), std::invalid_argument);
}

TEST(Rng, DrawsKeepLibstdcxxBits) {
  // uniform(), uniform(lo, hi) and bernoulli(p) are computed inline;
  // they must equal the standard distributions on a twin engine bit for
  // bit and draw exactly one word each, so every fixed-seed run stays.
  constexpr std::array<std::pair<double, double>, 4> kRanges{
      {{0.0, 0.03}, {-2.5, 7.25}, {1e-9, 1e-9 + 1e-12}, {0.0, 1.0}}};
  constexpr std::array<double, 4> kProbs{0.3, 1e-6, 0.999, 0.5};
  for (const std::uint64_t seed : {11ULL, 7ULL, 0x9e3779b97f4a7c15ULL}) {
    Rng rng(seed);
    std::mt19937_64 twin(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < 10'000'000; ++i) {
      switch (i % 3) {
        case 0:
          mismatches += std::bit_cast<std::uint64_t>(rng.uniform()) !=
                        std::bit_cast<std::uint64_t>(unit(twin));
          break;
        case 1: {
          const auto [lo, hi] = kRanges[(i / 3) % kRanges.size()];
          std::uniform_real_distribution<double> range(lo, hi);
          mismatches += std::bit_cast<std::uint64_t>(rng.uniform(lo, hi)) !=
                        std::bit_cast<std::uint64_t>(range(twin));
          break;
        }
        default: {
          const double p = kProbs[(i / 3) % kProbs.size()];
          mismatches += rng.bernoulli(p) != (unit(twin) < p);
          break;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(rng.next_u64(), twin()) << "seed " << seed;  // still in lockstep
  }
}

TEST(Rng, CopiedOrMovedBeforeTheFirstDrawKeepsEveryDraw) {
  // The engine is seeded on the first draw: a copy or a move made before
  // it must draw exactly what an eagerly seeded mt19937_64 does, through
  // every entry point, whichever one draws first.
  for (const std::uint64_t seed : {0ULL, 42ULL, 0x9e3779b97f4a7c15ULL}) {
    for (std::uint64_t first = 0; first < 6; ++first) {
      const Rng original(seed);
      Rng copied = original;
      Rng moved_from(seed);
      Rng moved = std::move(moved_from);
      for (Rng* rng : {&copied, &moved}) {
        std::mt19937_64 twin(seed);
        std::uint64_t mismatches = 0;
        for (std::uint64_t i = first; i < first + 100'000; ++i) {
          switch (i % 6) {
            case 0:
              mismatches += std::bit_cast<std::uint64_t>(rng->uniform()) !=
                            std::bit_cast<std::uint64_t>(
                                std::uniform_real_distribution<double>(0.0, 1.0)(twin));
              break;
            case 1:
              mismatches += std::bit_cast<std::uint64_t>(rng->uniform(-1.5, 3.0)) !=
                            std::bit_cast<std::uint64_t>(
                                std::uniform_real_distribution<double>(-1.5, 3.0)(twin));
              break;
            case 2:
              mismatches += rng->bernoulli(0.25) !=
                            (std::uniform_real_distribution<double>(0.0, 1.0)(twin) < 0.25);
              break;
            case 3:
              mismatches += std::bit_cast<std::uint64_t>(rng->exponential(2.5)) !=
                            std::bit_cast<std::uint64_t>(
                                std::exponential_distribution<double>(1.0 / 2.5)(twin));
              break;
            case 4:
              mismatches += rng->uniform_int(3, 1000) !=
                            std::uniform_int_distribution<std::uint64_t>(3, 1000)(twin);
              break;
            default:
              mismatches += rng->next_u64() != twin();
              break;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "seed " << seed << ", first draw " << first;
      }
    }
  }
}

/// A generator that returns one fixed word: std::generate_canonical's
/// view of a single mt19937_64 draw.
struct OneWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(Rng, CanonicalDoubleMatchesGenerateCanonicalOnEdgeWords) {
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};  // 2^64 - 1
  for (const std::uint64_t word :
       {std::uint64_t{0}, std::uint64_t{1}, kTwo53 - 1, kTwo53 + 1, kTwo63, kTwo63 + 1,
        kMax - 2048, kMax - 1024, kMax - 1023, kMax}) {
    OneWord urbg{word};
    const double expected = std::generate_canonical<double, 53>(urbg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(canonical_double(word)),
              std::bit_cast<std::uint64_t>(expected))
        << word;
  }
  // 2^64 - 1024 and 2^64 - 1 round to 2^64: both clamp below 1.
  EXPECT_EQ(canonical_double(kMax - 1023), 0x1.fffffffffffffp-1);
  EXPECT_EQ(canonical_double(kMax), 0x1.fffffffffffffp-1);
}

}  // namespace
}  // namespace pftk::sim
