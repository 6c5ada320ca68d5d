// Runtime TCP Reno state-machine invariant checker.
//
// The paper's model is only valid for a sender that actually obeys the
// Reno rules it abstracts; this checker rides the SenderObserver hook
// chain and verifies, on every observable protocol event, the invariants
// those equations assume:
//
//   * cwnd >= 1 packet          — eq. 5's W >= 1 regime (a Reno sender
//                                 never shrinks below one segment);
//   * ssthresh >= 2 packets     — the max(flight/2, 2) halving floor;
//   * in_flight <= Wm           — the receiver-window clamp of eqs 20/24
//                                 (advertised_window in the config);
//   * RTO <= min(64*T0 cap)     — eq. 30's backoff regime: the timer
//                                 backs off 2^k with k capped so the
//                                 delay never exceeds 64x the base;
//   * monotone event time       — the EventQueue never runs backwards;
//   * monotone snd_una          — cumulative ACKs never retreat the
//                                 sender's acknowledged point.
//
// The checker forwards every hook to a `next` observer, so it interposes
// invisibly between the sender and a trace recorder: Connection installs
// it by default, which means every tier-1 simulation test runs with the
// invariants live. A violation throws InvariantViolation (classified
// permanent/invariant by the campaign taxonomy — a deterministic protocol
// bug, retrying cannot help) unless configured to count only.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/sender_observer.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {

class TcpRenoSender;

/// A broken protocol invariant: deterministic, never retryable.
class InvariantViolation : public std::logic_error {
 public:
  InvariantViolation(std::string check, const std::string& detail)
      : std::logic_error("invariant violated [" + check + "]: " + detail),
        check_(std::move(check)) {}

  /// Stable token naming the violated check (e.g. "cwnd_floor").
  [[nodiscard]] const std::string& check() const noexcept { return check_; }

 private:
  std::string check_;
};

struct InvariantCheckerConfig {
  /// Throw InvariantViolation on the first violation (default). When
  /// false, violations are only counted — for metrics-driven soak runs.
  bool throw_on_violation = true;
};

/// Everything about an InvariantChecker that changes as it runs, in one
/// struct so that InvariantChecker::save copies every field.
struct InvariantCheckerState {
  std::uint64_t violations_ = 0;
  std::uint64_t checks_ = 0;
  std::string first_violation_;
  Time last_time_ = 0.0;
  SeqNo last_una_ = 0;
  bool seen_event_ = false;
};

/// SenderObserver that checks invariants and forwards to the next
/// observer in the chain.
class InvariantChecker final : public SenderObserver, private InvariantCheckerState {
 public:
  using State = InvariantCheckerState;

  explicit InvariantChecker(const TcpRenoSender& sender,
                            InvariantCheckerConfig config = {});

  /// Copies the checker's state (not the sender or `next` it is wired to).
  void save(State& out) const { out = *this; }
  void restore(const State& state) { static_cast<State&>(*this) = state; }

  /// The downstream observer every hook is forwarded to (may be null).
  void set_next(SenderObserver* next) noexcept { next_ = next; }
  [[nodiscard]] SenderObserver* next() const noexcept { return next_; }

  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }
  [[nodiscard]] std::uint64_t checks_run() const noexcept { return checks_; }
  /// First violation's message ("" while clean) — kept even in counting
  /// mode so reports can name the earliest breakage.
  [[nodiscard]] const std::string& first_violation() const noexcept {
    return first_violation_;
  }

  void on_segment_sent(Time t, SeqNo seq, bool retransmission,
                       std::size_t in_flight, double cwnd) override;
  void on_ack_received(Time t, SeqNo cumulative, bool duplicate) override;
  void on_fast_retransmit(Time t, SeqNo seq) override;
  void on_timeout(Time t, SeqNo seq, int consecutive, Duration rto_used) override;
  void on_rtt_sample(Time t, Duration sample, std::size_t in_flight) override;

 private:
  void check_state(Time t, const char* hook);
  void violate(const char* check, const std::string& detail);

  // Wiring, not saved.
  const TcpRenoSender& sender_;
  InvariantCheckerConfig config_;
  SenderObserver* next_ = nullptr;
};

}  // namespace pftk::sim
