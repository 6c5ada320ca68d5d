// Unit tests for the individual equations of Section II.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/model_terms.hpp"

namespace pftk::model {
namespace {

TEST(BackoffPolynomial, ValueAtZeroIsOne) {
  EXPECT_DOUBLE_EQ(backoff_polynomial(0.0), 1.0);
}

TEST(BackoffPolynomial, KnownValue) {
  // f(0.5) = 1 + .5 + 2*.25 + 4*.125 + 8*.0625 + 16*.03125 + 32*.015625
  //        = 1 + .5 + .5 + .5 + .5 + .5 + .5 = 4.0
  EXPECT_NEAR(backoff_polynomial(0.5), 4.0, 1e-12);
}

TEST(BackoffPolynomial, MonotoneIncreasing) {
  double prev = backoff_polynomial(0.0);
  for (double p = 0.05; p < 1.0; p += 0.05) {
    const double cur = backoff_polynomial(p);
    EXPECT_GT(cur, prev) << "p=" << p;
    prev = cur;
  }
}

TEST(BackoffPolynomial, RejectsOutOfRange) {
  EXPECT_THROW((void)backoff_polynomial(-0.01), std::invalid_argument);
  EXPECT_THROW((void)backoff_polynomial(1.0), std::invalid_argument);
}

TEST(ExpectedWindow, MatchesSqrtAsymptoteForSmallP) {
  // eq (14): E[W] -> sqrt(8/(3 b p)) as p -> 0.
  for (const int b : {1, 2}) {
    const double p = 1e-6;
    const double asymptote = std::sqrt(8.0 / (3.0 * b * p));
    EXPECT_NEAR(expected_unconstrained_window(p, b) / asymptote, 1.0, 1e-2);
  }
}

TEST(ExpectedWindow, KnownValueAtTenPercentB2) {
  // Direct evaluation of eq (13) with p=0.1, b=2: c = 4/6 = 2/3,
  // E[W] = 2/3 + sqrt(8*0.9/(6*0.1) + 4/9) = 2/3 + sqrt(12 + 4/9).
  const double expected = 2.0 / 3.0 + std::sqrt(12.0 + 4.0 / 9.0);
  EXPECT_NEAR(expected_unconstrained_window(0.1, 2), expected, 1e-12);
}

TEST(ExpectedWindow, DecreasesWithLoss) {
  double prev = expected_unconstrained_window(0.001, 2);
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double cur = expected_unconstrained_window(p, 2);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(ExpectedWindow, SmallerWithDelayedAcks) {
  // b = 2 halves the growth rate, so the expected window shrinks.
  for (const double p : {0.01, 0.05, 0.2}) {
    EXPECT_LT(expected_unconstrained_window(p, 2),
              expected_unconstrained_window(p, 1));
  }
}

TEST(ExpectedRounds, RelatedToWindowByEq11) {
  // eq (11): E[W] = (2/b) E[X] holds asymptotically; check the exact
  // forms differ only in the additive constant regime for small p.
  const double p = 1e-5;
  for (const int b : {1, 2}) {
    const double ew = expected_unconstrained_window(p, b);
    const double ex = expected_rounds_unconstrained(p, b);
    EXPECT_NEAR(ex / (b * ew / 2.0), 1.0, 2e-2);
  }
}

TEST(QHatExact, OneForTinyWindows) {
  EXPECT_DOUBLE_EQ(q_hat_exact(0.05, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(q_hat_exact(0.05, 3.0), 1.0);
}

TEST(QHatExact, LimitIsThreeOverW) {
  // lim p->0 Qhat(w) = 3/w (stated below eq 24).
  for (const double w : {4.0, 8.0, 16.0, 64.0}) {
    EXPECT_NEAR(q_hat_exact(1e-9, w), 3.0 / w, 1e-6) << "w=" << w;
  }
}

TEST(QHatExact, WithinUnitInterval) {
  for (double p = 0.01; p < 1.0; p += 0.07) {
    for (double w = 1.0; w < 100.0; w *= 1.7) {
      const double q = q_hat_exact(p, w);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST(QHatExact, ApproximationIsCloseForSmallLoss) {
  // eq (25): Qhat(w) ~= min(1, 3/w) — an approximation anchored at the
  // p -> 0 limit, so check closeness in the small-p regime.
  for (const double p : {0.001, 0.005, 0.01}) {
    for (const double w : {4.0, 8.0, 16.0, 32.0}) {
      EXPECT_NEAR(q_hat_exact(p, w), q_hat_approx(w), 0.1)
          << "p=" << p << " w=" << w;
    }
  }
}

TEST(QHatExact, ExceedsApproximationAtHighLoss) {
  // At larger p the exact Qhat grows above 3/w: timeouts become more
  // likely than the small-p limit suggests.
  for (const double w : {8.0, 16.0, 32.0}) {
    EXPECT_GT(q_hat_exact(0.2, w), q_hat_approx(w)) << "w=" << w;
  }
}

TEST(QHatSummation, ReproducesClosedFormExactly) {
  // The summation of eq (22)/(23) and the closed form of eq (24) are the
  // same quantity — an independent verification of the paper's algebra.
  for (const double p : {0.001, 0.01, 0.05, 0.2, 0.5, 0.9}) {
    for (const int w : {1, 2, 3, 4, 5, 8, 16, 33, 64}) {
      EXPECT_NEAR(q_hat_summation(p, w), q_hat_exact(p, static_cast<double>(w)), 1e-12)
          << "p=" << p << " w=" << w;
    }
  }
}

TEST(QHatSummation, SmallWindowsAlwaysTimeout) {
  EXPECT_DOUBLE_EQ(q_hat_summation(0.1, 1), 1.0);
  EXPECT_DOUBLE_EQ(q_hat_summation(0.1, 3), 1.0);
}

TEST(QHatSummation, DomainChecks) {
  EXPECT_THROW((void)q_hat_summation(0.0, 8), std::invalid_argument);
  EXPECT_THROW((void)q_hat_summation(0.5, 0), std::invalid_argument);
}

TEST(QHatApprox, MinOfOneAndThreeOverW) {
  EXPECT_DOUBLE_EQ(q_hat_approx(1.0), 1.0);
  EXPECT_DOUBLE_EQ(q_hat_approx(2.0), 1.0);
  EXPECT_DOUBLE_EQ(q_hat_approx(6.0), 0.5);
  EXPECT_DOUBLE_EQ(q_hat_approx(30.0), 0.1);
}

TEST(ExpectedTimeouts, GeometricMean) {
  // E[R] = 1/(1-p), eq (27).
  EXPECT_DOUBLE_EQ(expected_timeouts_in_sequence(0.0), 1.0);
  EXPECT_DOUBLE_EQ(expected_timeouts_in_sequence(0.5), 2.0);
  EXPECT_NEAR(expected_timeouts_in_sequence(0.9), 10.0, 1e-12);
}

TEST(TimeoutSequenceDuration, DoublingThenPlateau) {
  const double t0 = 2.0;
  // L_k = (2^k - 1) T0 for k <= 6.
  EXPECT_DOUBLE_EQ(timeout_sequence_duration(1, t0), 1.0 * t0);
  EXPECT_DOUBLE_EQ(timeout_sequence_duration(2, t0), 3.0 * t0);
  EXPECT_DOUBLE_EQ(timeout_sequence_duration(6, t0), 63.0 * t0);
  // L_7 = (63 + 64) T0, L_8 = (63 + 128) T0.
  EXPECT_DOUBLE_EQ(timeout_sequence_duration(7, t0), 127.0 * t0);
  EXPECT_DOUBLE_EQ(timeout_sequence_duration(8, t0), 191.0 * t0);
}

TEST(TimeoutSequenceDuration, IrixCapAtFiveDoublings) {
  const double t0 = 1.0;
  EXPECT_DOUBLE_EQ(timeout_sequence_duration(5, t0, 5), 31.0);
  EXPECT_DOUBLE_EQ(timeout_sequence_duration(6, t0, 5), 31.0 + 32.0);
}

TEST(TimeoutSequenceDuration, RejectsBadArguments) {
  EXPECT_THROW((void)timeout_sequence_duration(0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)timeout_sequence_duration(1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)timeout_sequence_duration(1, 1.0, 0), std::invalid_argument);
  EXPECT_THROW((void)timeout_sequence_duration(1, 1.0, 31), std::invalid_argument);
}

TEST(ExpectedTimeoutDuration, ClosedFormMatchesDirectSummation) {
  // The closed form T0 f(p)/(1-p) must equal the direct sum at cap 6.
  for (const double p : {0.0, 0.01, 0.1, 0.3, 0.6, 0.9}) {
    const double closed = expected_timeout_sequence_duration(p, 2.5);
    const double direct = expected_timeout_sequence_duration_capped(p, 2.5, 6);
    EXPECT_NEAR(closed, direct, 1e-9 * std::max(1.0, closed)) << "p=" << p;
  }
}

TEST(ExpectedTimeoutDuration, ReducesToT0WithoutLoss) {
  EXPECT_DOUBLE_EQ(expected_timeout_sequence_duration(0.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(expected_timeout_sequence_duration_capped(0.0, 3.0, 4), 3.0);
}

TEST(ExpectedTimeoutDuration, SmallerCapShortensSequences) {
  // With the plateau reached earlier, long sequences are cheaper.
  const double p = 0.5;
  EXPECT_LT(expected_timeout_sequence_duration_capped(p, 1.0, 3),
            expected_timeout_sequence_duration_capped(p, 1.0, 6));
}

TEST(Terms, DomainChecks) {
  EXPECT_THROW((void)expected_unconstrained_window(0.0, 2), std::invalid_argument);
  EXPECT_THROW((void)expected_unconstrained_window(0.5, 0), std::invalid_argument);
  EXPECT_THROW((void)expected_rounds_unconstrained(1.0, 2), std::invalid_argument);
  EXPECT_THROW((void)q_hat_exact(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)q_hat_exact(0.5, 0.5), std::invalid_argument);
  EXPECT_THROW((void)q_hat_approx(0.0), std::invalid_argument);
  EXPECT_THROW((void)expected_timeouts_in_sequence(1.0), std::invalid_argument);
}

TEST(Terms, SubnormalLossRatesAreOutsideTheModelDomain) {
  // The model's p domain: a subnormal p overflows the 1/p terms, so the
  // terms refuse it and name p, while the smallest normal p passes.
  constexpr double kSubnormal = 4e-320;
  EXPECT_THROW((void)backoff_polynomial(kSubnormal), std::invalid_argument);
  EXPECT_THROW((void)expected_unconstrained_window(kSubnormal, 2), std::invalid_argument);
  EXPECT_THROW((void)expected_timeouts_in_sequence(kSubnormal), std::invalid_argument);
  try {
    (void)q_hat_exact(kSubnormal, 8.0);
    ADD_FAILURE() << "q_hat_exact accepted a subnormal p";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("loss probability p"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW((void)backoff_polynomial(DBL_MIN));
  EXPECT_TRUE(std::isfinite(expected_unconstrained_window(DBL_MIN, 2)));
  EXPECT_NO_THROW((void)q_hat_exact(DBL_MIN, 8.0));
  EXPECT_NO_THROW((void)expected_timeouts_in_sequence(DBL_MIN));
}

}  // namespace
}  // namespace pftk::model
