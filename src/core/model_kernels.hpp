// The one implementation of each closed form: eq (29) f(p), eq (13)
// E[Wu], eq (24) Qhat, eq (32) with its Section II-C regime switch,
// eq (33) and eq (20). Every entry point — the validating scalar
// functions, PreparedModel, evaluate_batch_p, the serve cache — ends
// here, so a given (p, RTT, T0, b, Wm) gets the same bits from all of
// them.
//
// The kernels are unchecked: callers validate first (ModelParams::
// validate() for the scalar functions, the PreparedModel constructor
// plus its p range check for the prepared path). Each evaluates in the
// operation order the paper prints. Constants keeps only values computed
// with exactly the operations the equations would perform inline, so
// hoisting them out of a p loop changes no bit of any answer.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/full_model.hpp"
#include "core/tcp_model_params.hpp"

namespace pftk::model::kernel {

/// The inputs that stay fixed while p varies, and the exact hoists.
struct Constants {
  explicit Constants(const ModelParams& m)
      : rtt(m.rtt),
        t0(m.t0),
        wm(m.wm),
        b(static_cast<double>(m.b)),
        three_b(3.0 * b),
        ewu_c((2.0 + b) / three_b),
        half_b(b / 2.0),
        eighth_b_wm(b / 8.0 * wm),
        ceiling(wm / rtt) {}

  double rtt;
  double t0;
  double wm;
  double b;
  double three_b;      ///< 3b                    (eqs 13, 33)
  double ewu_c;        ///< (2+b)/(3b)            (eq 13)
  double half_b;       ///< b/2                   (eq 11)
  double eighth_b_wm;  ///< (b/8)*Wm              (Section II-C)
  double ceiling;      ///< Wm/RTT, the p = 0 limit
};

/// f(p), eq (29), in Horner form.
[[nodiscard]] inline double backoff(double p) {
  return 1.0 + p * (1.0 + p * (2.0 + p * (4.0 + p * (8.0 + p * (16.0 + p * 32.0)))));
}

/// E[Wu], eq (13), with c = (2+b)/(3b). Needs 0 < p < 1.
[[nodiscard]] inline double unconstrained_window(double p, double three_b, double c) {
  return c + std::sqrt(8.0 * (1.0 - p) / (three_b * p) + c * c);
}

/// Qhat(w), eq (24); every loss at w <= 3 is a timeout. Needs 0 < p < 1.
[[nodiscard]] inline double q_hat(double p, double w) {
  if (w <= 3.0) {
    return 1.0;
  }
  const double q = 1.0 - p;
  const double q3 = q * q * q;
  const double denom = 1.0 - std::pow(q, w);
  const double value = (1.0 - q3) * (1.0 + q3 * (1.0 - std::pow(q, w - 3.0))) / denom;
  return std::min(1.0, value);
}

/// Eq (32) and its terms. p = 0 is the analytic limit: a full window
/// every RTT.
[[nodiscard]] inline FullModelBreakdown full(const Constants& k, double p) {
  FullModelBreakdown out;
  if (p == 0.0) {
    out.expected_window_unconstrained = ModelParams::unlimited_window;
    out.expected_window = k.wm;
    out.window_limited = true;
    out.numerator_packets = k.wm;
    out.denominator_seconds = k.rtt;
    out.send_rate = k.ceiling;
    return out;
  }
  const double ewu = unconstrained_window(p, k.three_b, k.ewu_c);
  out.expected_window_unconstrained = ewu;
  out.window_limited = ewu >= k.wm;
  if (!out.window_limited) {
    // For large b at high p, eq (13) dips below one packet; a congestion
    // window cannot, so E[W] is floored at 1 (Qhat's domain starts
    // there too). E[X] = (b/2) E[Wu] by eq (11).
    out.expected_window = std::max(1.0, ewu);
    out.expected_rounds = k.half_b * ewu;
  } else {
    // The window saturates at Wm and the TDP gains E[V] flat rounds
    // (Section II-C): E[X] = (b/8) Wm + (1-p)/(p Wm) + 1.
    out.expected_window = k.wm;
    out.expected_rounds = k.eighth_b_wm + (1.0 - p) / (p * k.wm) + 1.0;
  }
  out.q_hat = q_hat(p, out.expected_window);
  out.numerator_packets =
      (1.0 - p) / p + out.expected_window + out.q_hat / (1.0 - p);
  out.denominator_seconds = k.rtt * (out.expected_rounds + 1.0) +
                            out.q_hat * k.t0 * backoff(p) / (1.0 - p);
  out.send_rate = out.numerator_packets / out.denominator_seconds;
  return out;
}

/// Eq (33), capped at Wm/RTT.
[[nodiscard]] inline double approx(const Constants& k, double p) {
  if (p == 0.0) {
    return k.ceiling;
  }
  const double td_term = k.rtt * std::sqrt(2.0 * k.b * p / 3.0);
  const double to_term = k.t0 * std::min(1.0, 3.0 * std::sqrt(k.three_b * p / 8.0)) * p *
                         (1.0 + 32.0 * p * p);
  return std::min(k.ceiling, 1.0 / (td_term + to_term));
}

/// Eq (20), the square-root law; unbounded at p = 0.
[[nodiscard]] inline double td_only(const Constants& k, double p) {
  if (p == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::sqrt(3.0 / (2.0 * k.b * p)) / k.rtt;
}

}  // namespace pftk::model::kernel
