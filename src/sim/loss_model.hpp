// Stochastic packet-loss processes applied by a Link.
//
// The paper assumes losses are *correlated within a round* (once one
// packet of a window is lost, the rest of that back-to-back burst is lost
// too — the drop-tail signature) and independent *across* rounds, but
// notes (Section IV) the model also fits Bernoulli losses. We provide:
//
//  * BernoulliLoss      — i.i.d. per-packet loss,
//  * BurstLoss          — fixed-duration loss episodes (the correlated-
//                         round assumption, time-domain form),
//  * MixedBurstLoss     — the Table-II workload generator: single drops
//                         (TD indications) mixed with exponential-length
//                         episodes (timeout sequences with backoff),
//  * GilbertElliottLoss — two-state Markov bursty loss (future-work knob).
#pragma once

#include <functional>
#include <memory>

#include "sim/rng.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {

/// Decides the fate of each packet offered to a link.
class LossModel {
 public:
  /// The mutable state of every process below, by value, so that a
  /// Link's snapshot saves it; each process uses only its own fields.
  struct State {
    Time burst_until = -1.0;  ///< BurstLoss, MixedBurstLoss: episode end
    bool bad = false;         ///< GilbertElliottLoss: the chain is in Bad
  };

  virtual ~LossModel() = default;

  /// Returns true if the packet arriving at the link at `at` should be
  /// dropped. Called exactly once per packet in arrival order.
  [[nodiscard]] virtual bool should_drop(Time at, Rng& rng) = 0;

  /// Resets internal state (burst flags, Markov state) for a fresh run.
  void reset() noexcept { state_ = State{}; }

  [[nodiscard]] const State& state() const noexcept { return state_; }
  void restore(const State& state) noexcept { state_ = state; }

 protected:
  State state_;
};

/// Independent loss with fixed probability p.
class BernoulliLoss final : public LossModel {
 public:
  /// @throws std::invalid_argument unless 0 <= p < 1.
  explicit BernoulliLoss(double p);

  [[nodiscard]] bool should_drop(Time at, Rng& rng) override;

 private:
  double p_;
};

/// The paper's correlated-round loss process, modelled as a loss
/// *episode*: a fresh loss starts with probability `p` per offered
/// packet, and once started, every packet offered during the next
/// `burst_duration` seconds is dropped too (a drop-tail overflow window).
/// With ack-clocked TCP a flight spreads over one RTT, so a duration of
/// about half the RTT kills "the rest of the round" while sparing the
/// next round's packets — the paper's exact correlation assumption. A
/// duration of several RTTs instead kills whole flights, yielding the
/// timeout-dominated traces of Table II.
class BurstLoss final : public LossModel {
 public:
  /// @throws std::invalid_argument unless 0 <= p < 1 and burst_duration > 0.
  BurstLoss(double p, Duration burst_duration);

  [[nodiscard]] bool should_drop(Time at, Rng& rng) override;

 private:
  double p_;
  Duration burst_duration_;
};

/// The Table-II workload generator: a mixture of two loss modes. Each
/// fresh loss (probability `p` per offered packet) is either
///  * a single-packet drop (probability `single_fraction`) — the kind
///    that leaves the rest of the window intact, draws >= 3 dup-ACKs and
///    resolves as a TD indication, or
///  * a loss *episode* of exponentially distributed duration (mean
///    `episode_mean` seconds) during which every offered packet is
///    dropped — short episodes kill part of a flight, long ones also kill
///    the RTO retransmissions, producing the T1/T2/... backoff columns
///    with geometric frequencies.
class MixedBurstLoss final : public LossModel {
 public:
  /// @param episode_min floor added to every episode's duration: an
  ///        outage always covers at least this long (set it near one RTT
  ///        so episodes always kill a whole flight and resolve as
  ///        timeouts, never as TDs).
  /// @throws std::invalid_argument unless 0 <= p < 1,
  ///         0 <= single_fraction <= 1, episode_mean > 0 and
  ///         episode_min >= 0.
  MixedBurstLoss(double p, double single_fraction, Duration episode_mean,
                 Duration episode_min = 0.0);

  [[nodiscard]] bool should_drop(Time at, Rng& rng) override;

 private:
  double p_;
  double single_fraction_;
  Duration episode_mean_;
  Duration episode_min_;
};

/// Externally decided per-packet loss: every drop/no-drop verdict comes
/// from a caller-supplied oracle, and the link's Rng is never touched
/// (adding or removing the oracle cannot perturb any other stream).
/// This is the model checker's choice-point seam: the explorer installs
/// an oracle that forwards each verdict to its ChoiceSource, turning
/// "which packets are lost" into an exhaustively enumerable branch.
class OracleLoss final : public LossModel {
 public:
  using Oracle = std::function<bool(Time)>;

  /// @throws std::invalid_argument if `oracle` is empty.
  explicit OracleLoss(Oracle oracle);

  [[nodiscard]] bool should_drop(Time at, Rng& rng) override;

 private:
  Oracle oracle_;
};

/// Two-state Gilbert-Elliott channel: in Good state packets survive; in
/// Bad state they are dropped with probability `loss_in_bad`. Transitions
/// are evaluated per packet.
class GilbertElliottLoss final : public LossModel {
 public:
  /// @param p_good_to_bad per-packet transition probability Good -> Bad
  /// @param p_bad_to_good per-packet transition probability Bad -> Good
  /// @param loss_in_bad   drop probability while in Bad (default 1)
  /// @throws std::invalid_argument if any probability is outside [0, 1]
  ///         or both transition probabilities are zero.
  GilbertElliottLoss(double p_good_to_bad, double p_bad_to_good, double loss_in_bad = 1.0);

  [[nodiscard]] bool should_drop(Time at, Rng& rng) override;

  /// Long-run fraction of time spent in the Bad state.
  [[nodiscard]] double stationary_bad_fraction() const noexcept;

  /// Long-run average per-packet drop probability.
  [[nodiscard]] double average_loss_rate() const noexcept;

 private:
  double g2b_;
  double b2g_;
  double loss_in_bad_;
};

}  // namespace pftk::sim
