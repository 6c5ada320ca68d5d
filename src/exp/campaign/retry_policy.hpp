// Capped exponential backoff with deterministic seed perturbation.
//
// Transient failures (watchdog trips under an injected blackout, wall
// deadlines on a loaded machine) are retried. Two rules keep retries
// honest:
//   * backoff is capped exponential — a retry storm cannot hammer the
//     worker pool, and a pathological item costs a bounded amount of
//     wall time;
//   * each attempt perturbs the item seed *deterministically* (splitmix64
//     of base seed and attempt number), so a retried run is a different
//     but reproducible random path. Re-running the campaign reproduces
//     the same attempt sequence byte for byte.
#pragma once

#include <chrono>
#include <cstdint>

namespace pftk::exp::campaign {

/// Retry knobs for transient failures.
struct RetryPolicy {
  /// Total tries per trace, including the first (1 = never retry).
  int max_attempts = 3;
  /// Backoff before retry k (k >= 1) is base * multiplier^(k-1), capped.
  std::chrono::milliseconds backoff_base{25};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds backoff_cap{2000};

  /// @throws std::invalid_argument naming the offending field.
  void validate() const;

  /// Delay before attempt `attempt` (0-based; attempt 0 has no delay).
  [[nodiscard]] std::chrono::milliseconds backoff(int attempt) const;
};

/// Seed for attempt `attempt` of an item with base seed `seed`: attempt 0
/// uses the base seed unchanged (a clean campaign is byte-identical to an
/// unsupervised run); later attempts splitmix the pair.
[[nodiscard]] std::uint64_t perturbed_seed(std::uint64_t seed, int attempt) noexcept;

}  // namespace pftk::exp::campaign
