// Input parameters shared by every analytic model in the paper.
//
// All models are functions B(p; RTT, T0, b, Wm) mapping a loss-indication
// probability to a steady-state send rate (or throughput) in packets per
// second. This header defines the parameter bundle and its validity rules.
#pragma once

#include <stdexcept>
#include <string>

namespace pftk::model {

/// Typed rejection of an out-of-range or non-finite input parameter.
/// Thrown by ModelParams::validate() and the CLI argument parsers so the
/// front end can map bad *input* to the usage exit code (2) uniformly,
/// instead of folding it into the generic runtime-failure code (1).
/// Derives from std::invalid_argument, so existing catch sites keep
/// working unchanged.
class ParamError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parameters of the PFTK TCP-Reno steady-state models.
///
/// Units: times in seconds, windows in packets, rates in packets/second.
struct ModelParams {
  /// Loss-indication probability: the probability that a packet is lost
  /// given that it is the first packet of its round or its predecessor in
  /// the round was not lost (Section II-A). Estimated from traces as
  /// (number of loss indications) / (packets sent). Range: 0, or
  /// [DBL_MIN, 1) — a subnormal p overflows eq (32)'s 1/p terms.
  double p = 0.01;

  /// Average round trip time E[r] in seconds (> 0).
  double rtt = 0.2;

  /// Average duration of a *single* retransmission timeout, in seconds
  /// (> 0). Subsequent timeouts in a backoff sequence double up to 64*t0.
  double t0 = 2.0;

  /// Packets acknowledged per ACK; 2 with delayed ACKs, 1 without (>= 1).
  int b = 2;

  /// Receiver-advertised maximum window Wm, in packets (>= 1).
  /// Use `unlimited_window` for the unconstrained Section II-B model.
  double wm = 64.0;

  /// Sentinel for "no receiver-window limitation".
  static constexpr double unlimited_window = 1e9;

  /// True when every field is in its documented range.
  [[nodiscard]] bool valid() const noexcept;

  /// @throws std::invalid_argument naming the offending field if !valid().
  void validate() const;

  /// Human-readable one-line rendering, e.g. for bench headers.
  [[nodiscard]] std::string describe() const;
};

}  // namespace pftk::model
