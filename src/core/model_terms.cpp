#include "core/model_terms.hpp"

#include <cfloat>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/model_kernels.hpp"

namespace pftk::model {

namespace {

/// The model's p domain (ModelParams): DBL_MIN <= p < 1, or p == 0
/// where the term allows it. A subnormal p overflows the 1/p terms.
void require_loss_prob(double p, bool strict_positive) {
  if (!((p >= DBL_MIN && p < 1.0) || (!strict_positive && p == 0.0))) {
    std::ostringstream os;
    os << (strict_positive ? "loss probability p must be in [DBL_MIN, 1)"
                           : "loss probability p must be 0 or in [DBL_MIN, 1)")
       << ", got " << p;
    throw std::invalid_argument(os.str());
  }
}

void require_ack_factor(int b) {
  if (b < 1) {
    throw std::invalid_argument("ack factor b must be >= 1");
  }
}

}  // namespace

double backoff_polynomial(double p) {
  require_loss_prob(p, /*strict_positive=*/false);
  return kernel::backoff(p);
}

double expected_unconstrained_window(double p, int b) {
  require_loss_prob(p, /*strict_positive=*/true);
  require_ack_factor(b);
  const double db = static_cast<double>(b);
  const double three_b = 3.0 * db;
  return kernel::unconstrained_window(p, three_b, (2.0 + db) / three_b);
}

double expected_rounds_unconstrained(double p, int b) {
  require_loss_prob(p, /*strict_positive=*/true);
  require_ack_factor(b);
  const double db = static_cast<double>(b);
  const double c = (2.0 + db) / 6.0;
  return c + std::sqrt(2.0 * db * (1.0 - p) / (3.0 * p) + c * c);
}

double q_hat_exact(double p, double w) {
  require_loss_prob(p, /*strict_positive=*/true);
  if (!(std::isfinite(w) && w >= 1.0)) {
    throw std::invalid_argument("q_hat_exact: w must be >= 1");
  }
  return kernel::q_hat(p, w);
}

double q_hat_summation(double p, int w) {
  require_loss_prob(p, /*strict_positive=*/true);
  if (w < 1) {
    throw std::invalid_argument("q_hat_summation: w must be >= 1");
  }
  if (w <= 3) {
    return 1.0;  // eq (22), first case
  }
  const double q = 1.0 - p;
  const double denom = 1.0 - std::pow(q, w);  // P[some loss in the round]
  // A(w, k) = (1-p)^k p / (1 - (1-p)^w): first k packets ACKed, then loss.
  const auto a = [&](int k) { return std::pow(q, k) * p / denom; };
  // C(n, m): m packets of the n-packet last round ACKed in sequence.
  const auto c = [&](int n, int m) {
    return m <= n - 1 ? std::pow(q, m) * p : std::pow(q, n);
  };
  // h(k) = sum_{m=0}^{2} C(k, m): fewer than three dup-ACKs arrive.
  const auto h = [&](int k) {
    double sum = 0.0;
    for (int m = 0; m <= 2 && m <= k; ++m) {
      sum += c(k, m);
    }
    return sum;
  };
  double total = 0.0;
  for (int k = 0; k <= 2; ++k) {
    total += a(k);  // fewer than three packets survive the penultimate round
  }
  // k runs to w-1: with a loss in the penultimate round at most w-1 of
  // its packets are ACKed. (Eq (22) prints the upper limit as w, but
  // summing to w-1 is what reproduces the closed form (24) exactly.)
  for (int k = 3; k <= w - 1; ++k) {
    total += a(k) * h(k);
  }
  return std::min(1.0, total);
}

double q_hat_approx(double w) {
  if (!(std::isfinite(w) && w >= 1.0)) {
    throw std::invalid_argument("q_hat_approx: w must be >= 1");
  }
  return std::min(1.0, 3.0 / w);
}

double expected_timeouts_in_sequence(double p) {
  require_loss_prob(p, /*strict_positive=*/false);
  return 1.0 / (1.0 - p);
}

double timeout_sequence_duration(int k, double t0, int backoff_cap) {
  if (k < 1) {
    throw std::invalid_argument("timeout_sequence_duration: k must be >= 1");
  }
  if (!(std::isfinite(t0) && t0 > 0.0)) {
    throw std::invalid_argument("timeout_sequence_duration: t0 must be positive");
  }
  if (backoff_cap < 1 || backoff_cap > 30) {
    throw std::invalid_argument("timeout_sequence_duration: backoff_cap must be in [1, 30]");
  }
  const double plateau = std::ldexp(1.0, backoff_cap);  // 2^cap
  if (k <= backoff_cap) {
    return (std::ldexp(1.0, k) - 1.0) * t0;
  }
  return ((plateau - 1.0) + plateau * static_cast<double>(k - backoff_cap)) * t0;
}

double expected_timeout_sequence_duration(double p, double t0) {
  require_loss_prob(p, /*strict_positive=*/false);
  if (!(std::isfinite(t0) && t0 > 0.0)) {
    throw std::invalid_argument("expected_timeout_sequence_duration: t0 must be positive");
  }
  return t0 * backoff_polynomial(p) / (1.0 - p);
}

double expected_timeout_sequence_duration_capped(double p, double t0, int backoff_cap) {
  require_loss_prob(p, /*strict_positive=*/false);
  if (!(std::isfinite(t0) && t0 > 0.0)) {
    throw std::invalid_argument("expected_timeout_sequence_duration_capped: t0 must be positive");
  }
  if (backoff_cap < 1 || backoff_cap > 30) {
    throw std::invalid_argument(
        "expected_timeout_sequence_duration_capped: backoff_cap must be in [1, 30]");
  }
  if (p == 0.0) {
    return t0;  // exactly one timeout of duration T0
  }
  // E[Z^TO] = sum_k L_k * p^(k-1) * (1-p). Sum the pre-plateau terms
  // directly; the k > cap tail is (2^c-1)*p^c + 2^c*p^c/(1-p), times T0.
  double sum = 0.0;
  double pk = 1.0;  // p^(k-1)
  for (int k = 1; k <= backoff_cap; ++k) {
    sum += timeout_sequence_duration(k, t0, backoff_cap) * pk * (1.0 - p);
    pk *= p;
  }
  const double plateau = std::ldexp(1.0, backoff_cap);
  const double p_tail = pk;  // p^cap
  sum += t0 * ((plateau - 1.0) * p_tail + plateau * p_tail / (1.0 - p));
  return sum;
}

}  // namespace pftk::model
