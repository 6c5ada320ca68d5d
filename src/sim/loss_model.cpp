#include "sim/loss_model.hpp"

#include <stdexcept>

namespace pftk::sim {

BernoulliLoss::BernoulliLoss(double p) : p_(p) {
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument("BernoulliLoss: p must be in [0, 1)");
  }
}

bool BernoulliLoss::should_drop(Time /*at*/, Rng& rng) { return rng.bernoulli(p_); }

BurstLoss::BurstLoss(double p, Duration burst_duration)
    : p_(p), burst_duration_(burst_duration) {
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument("BurstLoss: p must be in [0, 1)");
  }
  if (!(burst_duration > 0.0)) {
    throw std::invalid_argument("BurstLoss: burst_duration must be positive");
  }
}

bool BurstLoss::should_drop(Time at, Rng& rng) {
  if (at < state_.burst_until) {
    return true;  // the rest of the episode is lost with the first packet
  }
  if (rng.bernoulli(p_)) {
    state_.burst_until = at + burst_duration_;
    return true;
  }
  return false;
}

MixedBurstLoss::MixedBurstLoss(double p, double single_fraction, Duration episode_mean,
                               Duration episode_min)
    : p_(p),
      single_fraction_(single_fraction),
      episode_mean_(episode_mean),
      episode_min_(episode_min) {
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument("MixedBurstLoss: p must be in [0, 1)");
  }
  if (!(single_fraction >= 0.0 && single_fraction <= 1.0)) {
    throw std::invalid_argument("MixedBurstLoss: single_fraction must be in [0, 1]");
  }
  if (!(episode_mean > 0.0)) {
    throw std::invalid_argument("MixedBurstLoss: episode_mean must be positive");
  }
  if (!(episode_min >= 0.0)) {
    throw std::invalid_argument("MixedBurstLoss: episode_min must be >= 0");
  }
}

bool MixedBurstLoss::should_drop(Time at, Rng& rng) {
  if (at < state_.burst_until) {
    return true;
  }
  if (!rng.bernoulli(p_)) {
    return false;
  }
  if (!rng.bernoulli(single_fraction_)) {
    state_.burst_until = at + episode_min_ + rng.exponential(episode_mean_);
  }
  return true;
}

GilbertElliottLoss::GilbertElliottLoss(double p_good_to_bad, double p_bad_to_good,
                                       double loss_in_bad)
    : g2b_(p_good_to_bad), b2g_(p_bad_to_good), loss_in_bad_(loss_in_bad) {
  const auto in_unit = [](double x) { return x >= 0.0 && x <= 1.0; };
  if (!in_unit(g2b_) || !in_unit(b2g_) || !in_unit(loss_in_bad_)) {
    throw std::invalid_argument("GilbertElliottLoss: probabilities must be in [0, 1]");
  }
  if (g2b_ == 0.0 && b2g_ == 0.0) {
    throw std::invalid_argument("GilbertElliottLoss: chain must be able to move");
  }
}

bool GilbertElliottLoss::should_drop(Time /*at*/, Rng& rng) {
  // Transition first, then evaluate loss in the new state; this makes a
  // packet immediately after a Good->Bad flip part of the loss burst.
  if (state_.bad) {
    if (rng.bernoulli(b2g_)) {
      state_.bad = false;
    }
  } else {
    if (rng.bernoulli(g2b_)) {
      state_.bad = true;
    }
  }
  return state_.bad && rng.bernoulli(loss_in_bad_);
}

double GilbertElliottLoss::stationary_bad_fraction() const noexcept {
  return g2b_ / (g2b_ + b2g_);
}

double GilbertElliottLoss::average_loss_rate() const noexcept {
  return stationary_bad_fraction() * loss_in_bad_;
}

OracleLoss::OracleLoss(Oracle oracle) : oracle_(std::move(oracle)) {
  if (!oracle_) {
    throw std::invalid_argument("OracleLoss: oracle must be callable");
  }
}

bool OracleLoss::should_drop(Time at, Rng& /*rng*/) { return oracle_(at); }

}  // namespace pftk::sim
