// Queue admission policies for rate-limited links.
//
// A bandwidth-limited Link keeps a FIFO of packets awaiting serialization;
// the QueuePolicy decides whether an arriving packet is admitted. DropTail
// reproduces the 1990s router behaviour the paper's correlated-loss
// assumption mimics; RED (ref [4] of the paper) is provided as an ablation
// substrate.
#pragma once

#include <cstddef>

#include "sim/rng.hpp"

namespace pftk::sim {

/// Admission decision for one arriving packet.
class QueuePolicy {
 public:
  /// The mutable state of every policy below, by value, so that a Link's
  /// snapshot saves it; each policy uses only its own fields.
  struct State {
    double avg = 0.0;          ///< RedPolicy: EWMA of the queue length
    int since_last_drop = -1;  ///< RedPolicy: packets since the last drop
  };

  virtual ~QueuePolicy() = default;

  /// Returns true to enqueue the arriving packet given `queue_len` packets
  /// already waiting (excluding the one in transmission).
  [[nodiscard]] virtual bool admit(std::size_t queue_len, Rng& rng) = 0;

  /// Clears smoothed state for a fresh run.
  void reset() noexcept { state_ = State{}; }

  [[nodiscard]] const State& state() const noexcept { return state_; }
  void restore(const State& state) noexcept { state_ = state; }

 protected:
  State state_;
};

/// Classic drop-tail: admit while the queue holds fewer than `capacity`.
class DropTailPolicy final : public QueuePolicy {
 public:
  /// @throws std::invalid_argument if capacity == 0.
  explicit DropTailPolicy(std::size_t capacity);

  [[nodiscard]] bool admit(std::size_t queue_len, Rng& rng) override;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
};

/// Random Early Detection (Floyd & Jacobson). Drops probabilistically
/// between min_th and max_th on the EWMA queue length, always above
/// max_th, never below min_th; `hard_capacity` still bounds the queue.
class RedPolicy final : public QueuePolicy {
 public:
  struct Config {
    double min_threshold = 5.0;   ///< packets
    double max_threshold = 15.0;  ///< packets
    double max_drop_prob = 0.1;   ///< p at max_threshold
    double ewma_weight = 0.002;   ///< queue-average weight w_q
    std::size_t hard_capacity = 100;
  };

  /// @throws std::invalid_argument on inconsistent thresholds/capacity.
  explicit RedPolicy(const Config& config);

  [[nodiscard]] bool admit(std::size_t queue_len, Rng& rng) override;

  /// Current EWMA of the queue length (exposed for tests).
  [[nodiscard]] double average_queue() const noexcept { return state_.avg; }

 private:
  Config cfg_;
};

}  // namespace pftk::sim
