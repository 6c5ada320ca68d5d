#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/full_model.hpp"
#include "core/model_terms.hpp"
#include "core/td_only_model.hpp"

namespace pftk::model {
namespace {

ModelParams params(double p, double rtt = 0.2, double t0 = 2.0, int b = 2,
                   double wm = ModelParams::unlimited_window) {
  ModelParams mp;
  mp.p = p;
  mp.rtt = rtt;
  mp.t0 = t0;
  mp.b = b;
  mp.wm = wm;
  return mp;
}

TEST(FullModel, ZeroLossGivesWindowCeiling) {
  const ModelParams mp = params(0.0, 0.25, 2.0, 2, 12.0);
  EXPECT_DOUBLE_EQ(full_model_send_rate(mp), 12.0 / 0.25);
}

TEST(FullModel, AlwaysBelowTdOnly) {
  // Timeouts only slow TCP down: the full model must predict less than
  // the pure-TD model everywhere.
  for (double p = 0.001; p < 0.5; p *= 1.6) {
    const ModelParams mp = params(p);
    EXPECT_LT(full_model_send_rate(mp), td_only_send_rate(mp)) << "p=" << p;
  }
}

TEST(FullModel, MonotoneDecreasingInLoss) {
  double prev = full_model_send_rate(params(0.0005));
  for (double p = 0.001; p < 0.95; p += 0.01) {
    const double cur = full_model_send_rate(params(p));
    EXPECT_LE(cur, prev * (1.0 + 1e-9)) << "p=" << p;
    prev = cur;
  }
}

TEST(FullModel, WindowLimitCapsLowLossRates) {
  const double wm = 8.0;
  const ModelParams capped = params(0.0001, 0.2, 2.0, 2, wm);
  const double rate = full_model_send_rate(capped);
  EXPECT_LE(rate, wm / 0.2 * 1.001);
  // At such low p the rate should be essentially the ceiling.
  EXPECT_GT(rate, 0.8 * wm / 0.2);
}

TEST(FullModel, UnlimitedWindowIsNeverWindowLimited) {
  const FullModelBreakdown b = full_model_breakdown(params(0.05));
  EXPECT_FALSE(b.window_limited);
}

TEST(FullModel, BreakdownRegimeSwitch) {
  // E[Wu] at p=0.001, b=2 is ~36.6: Wm=8 binds, Wm=64 does not.
  const FullModelBreakdown limited = full_model_breakdown(params(0.001, 0.2, 2.0, 2, 8.0));
  EXPECT_TRUE(limited.window_limited);
  EXPECT_DOUBLE_EQ(limited.expected_window, 8.0);

  const FullModelBreakdown open = full_model_breakdown(params(0.001, 0.2, 2.0, 2, 64.0));
  EXPECT_FALSE(open.window_limited);
  EXPECT_NEAR(open.expected_window, expected_unconstrained_window(0.001, 2), 1e-12);
}

TEST(FullModel, ContinuousAcrossRegimeBoundary) {
  // Pick Wm == E[Wu](p): both branches should agree closely there.
  const double p = 0.01;
  const double wm = expected_unconstrained_window(p, 2);
  const double below = full_model_send_rate(params(p, 0.2, 2.0, 2, wm * 1.0001));
  const double above = full_model_send_rate(params(p, 0.2, 2.0, 2, wm * 0.9999));
  EXPECT_NEAR(below / above, 1.0, 0.05);
}

TEST(FullModel, BreakdownRatioEqualsRate) {
  const FullModelBreakdown b = full_model_breakdown(params(0.03, 0.3, 1.5, 2, 20.0));
  EXPECT_NEAR(b.send_rate, b.numerator_packets / b.denominator_seconds, 1e-12);
  EXPECT_NEAR(b.send_rate, full_model_send_rate(params(0.03, 0.3, 1.5, 2, 20.0)), 1e-12);
}

TEST(FullModel, LongerTimeoutsSlowTheFlow) {
  const double fast = full_model_send_rate(params(0.05, 0.2, 1.0));
  const double slow = full_model_send_rate(params(0.05, 0.2, 8.0));
  EXPECT_GT(fast, slow);
}

TEST(FullModel, HighLossCollapsesTowardTimeoutFloor) {
  // At very high p, throughput is dominated by timeout waits: roughly one
  // useful packet per backed-off timeout sequence.
  const ModelParams mp = params(0.6, 0.2, 2.0);
  const double rate = full_model_send_rate(mp);
  EXPECT_LT(rate, 1.0);  // far below 1 packet/s with T0=2 and backoff
  EXPECT_GT(rate, 0.0);
}

TEST(FullModel, ValidatesInput) {
  ModelParams mp = params(0.01);
  mp.t0 = 0.0;
  EXPECT_THROW((void)full_model_send_rate(mp), std::invalid_argument);
}

TEST(FullModel, MatchesHandComputedValue) {
  // Hand-evaluate eq (32), unconstrained branch, p=0.04, b=2, RTT=0.2,
  // T0=2, Wm huge.
  const double p = 0.04;
  const double ew = expected_unconstrained_window(p, 2);
  const double qh = q_hat_exact(p, ew);
  const double f = backoff_polynomial(p);
  const double numerator = (1.0 - p) / p + ew + qh / (1.0 - p);
  const double denominator = 0.2 * (ew + 1.0) + qh * 2.0 * f / (1.0 - p);
  EXPECT_NEAR(full_model_send_rate(params(p)), numerator / denominator, 1e-12);
}

}  // namespace
}  // namespace pftk::model
