#include "sim/queue_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace pftk::sim {

DropTailPolicy::DropTailPolicy(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("DropTailPolicy: capacity must be > 0");
  }
}

bool DropTailPolicy::admit(std::size_t queue_len, Rng& /*rng*/) {
  return queue_len < capacity_;
}

RedPolicy::RedPolicy(const Config& config) : cfg_(config) {
  if (!(cfg_.min_threshold >= 0.0) || !(cfg_.max_threshold > cfg_.min_threshold)) {
    throw std::invalid_argument("RedPolicy: need 0 <= min_threshold < max_threshold");
  }
  if (!(cfg_.max_drop_prob > 0.0 && cfg_.max_drop_prob <= 1.0)) {
    throw std::invalid_argument("RedPolicy: max_drop_prob must be in (0, 1]");
  }
  if (!(cfg_.ewma_weight > 0.0 && cfg_.ewma_weight <= 1.0)) {
    throw std::invalid_argument("RedPolicy: ewma_weight must be in (0, 1]");
  }
  if (cfg_.hard_capacity == 0) {
    throw std::invalid_argument("RedPolicy: hard_capacity must be > 0");
  }
}

bool RedPolicy::admit(std::size_t queue_len, Rng& rng) {
  if (queue_len >= cfg_.hard_capacity) {
    state_.since_last_drop = -1;
    return false;
  }
  state_.avg = (1.0 - cfg_.ewma_weight) * state_.avg +
               cfg_.ewma_weight * static_cast<double>(queue_len);
  if (state_.avg < cfg_.min_threshold) {
    state_.since_last_drop = -1;
    return true;
  }
  if (state_.avg >= cfg_.max_threshold) {
    state_.since_last_drop = -1;
    return false;
  }
  // Linear drop probability, uniformized by the count since the last drop
  // (the gentle variant of Floyd & Jacobson's p_a correction).
  const double pb = cfg_.max_drop_prob * (state_.avg - cfg_.min_threshold) /
                    (cfg_.max_threshold - cfg_.min_threshold);
  ++state_.since_last_drop;
  const double denom = std::max(1e-9, 1.0 - static_cast<double>(state_.since_last_drop) * pb);
  const double pa = std::min(1.0, pb / denom);
  if (rng.bernoulli(pa)) {
    state_.since_last_drop = -1;
    return false;
  }
  return true;
}

}  // namespace pftk::sim
