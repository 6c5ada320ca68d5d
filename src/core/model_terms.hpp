// The individual analytic terms of Section II, exposed as documented
// functions so each equation can be tested and reused independently:
//
//   eq (13) expected_unconstrained_window   E[Wu]
//   eq (15) expected_rounds_unconstrained   E[X]
//   eq (24) q_hat_exact                     Q-hat(w), exact
//   eq (25) q_hat_approx                    Q-hat(w) ~= min(1, 3/w)
//   eq (27) expected_timeouts_in_sequence   E[R] = 1/(1-p)
//   eq (29) backoff_polynomial              f(p)
//           timeout_sequence_duration       L_k
//           expected_timeout_sequence_duration  E[Z^TO] = T0*f(p)/(1-p)
//
// All functions are pure; probabilities outside their documented domains
// raise std::invalid_argument. The p domain is the model's (ModelParams):
// DBL_MIN <= p < 1, plus p == 0 where a term is defined there. A
// subnormal p would overflow the 1/p terms.
#pragma once

namespace pftk::model {

/// f(p) = 1 + p + 2p^2 + 4p^3 + 8p^4 + 16p^5 + 32p^6  (eq 29).
/// This polynomial arises from summing the exponentially backed-off
/// timeout durations (doubling capped at 64*T0) over the geometric
/// distribution of timeout-sequence lengths.
/// @throws std::invalid_argument unless p is 0 or in [DBL_MIN, 1).
[[nodiscard]] double backoff_polynomial(double p);

/// E[Wu], the mean unconstrained window at the end of a TD period
/// (eq 13):  (2+b)/(3b) + sqrt(8(1-p)/(3bp) + ((2+b)/(3b))^2).
/// @throws std::invalid_argument unless DBL_MIN <= p < 1 and b >= 1.
[[nodiscard]] double expected_unconstrained_window(double p, int b);

/// E[X], the mean number of rounds in an unconstrained TD period (eq 15).
/// @throws std::invalid_argument unless DBL_MIN <= p < 1 and b >= 1.
[[nodiscard]] double expected_rounds_unconstrained(double p, int b);

/// Exact probability that a loss indication at window size w is a timeout
/// (eq 24), extended continuously to real-valued w (the model plugs in
/// E[W], which is not an integer). For w <= 3 every loss is a timeout.
/// @throws std::invalid_argument unless DBL_MIN <= p < 1 and w >= 1.
[[nodiscard]] double q_hat_exact(double p, double w);

/// The paper's approximation Q-hat(w) ~= min(1, 3/w)  (eq 25).
/// @throws std::invalid_argument unless w >= 1.
[[nodiscard]] double q_hat_approx(double w);

/// Q-hat(w) computed from first principles — the summation of eq (22):
///
///   Qhat(w) = sum_{k=0}^{2} A(w,k) + sum_{k=3}^{w} A(w,k) h(k)
///
/// with A(w,k) the probability that the first k packets of the
/// penultimate round are ACKed given a loss (the paper's A), and
/// h(k) = sum_{m=0}^{2} C(k,m) the probability that fewer than three
/// packets of the last round get through (eq 23). This is the definition
/// the closed form (eq 24) was derived from; the two must agree, which
/// the test suite verifies — an independent check of the paper's algebra.
/// @throws std::invalid_argument unless DBL_MIN <= p < 1 and w >= 1.
[[nodiscard]] double q_hat_summation(double p, int w);

/// E[R] = 1/(1-p): mean number of (re)transmissions in a timeout sequence
/// (eq 27), from the geometric distribution P[R=k] = p^(k-1) (1-p).
/// @throws std::invalid_argument unless p is 0 or in [DBL_MIN, 1).
[[nodiscard]] double expected_timeouts_in_sequence(double p);

/// L_k, the duration of a timeout sequence containing k timeouts, with
/// doubling capped after `backoff_cap` doublings (the paper uses 6, i.e.
/// a 64*T0 plateau; Section IV notes Irix caps at 5):
///   L_k = (2^k - 1) * T0                      for k <= cap
///   L_k = ((2^cap - 1) + 2^cap * (k - cap)) * T0  for k > cap.
/// @throws std::invalid_argument unless k >= 1, t0 > 0, 1 <= cap <= 30.
[[nodiscard]] double timeout_sequence_duration(int k, double t0, int backoff_cap = 6);

/// E[Z^TO] = T0 * f(p) / (1-p): mean duration of a timeout sequence
/// (Section II-B), for the standard cap of 6 doublings.
/// @throws std::invalid_argument unless p is 0 or in [DBL_MIN, 1) and t0 > 0.
[[nodiscard]] double expected_timeout_sequence_duration(double p, double t0);

/// Generalization of E[Z^TO] to an arbitrary backoff cap, computed by
/// direct summation of L_k * P[R=k]; equals the closed form at cap=6.
/// @throws std::invalid_argument unless p is 0 or in [DBL_MIN, 1), t0 > 0, 1 <= cap <= 30.
[[nodiscard]] double expected_timeout_sequence_duration_capped(double p, double t0,
                                                               int backoff_cap);

}  // namespace pftk::model
