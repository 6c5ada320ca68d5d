#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/approx_model.hpp"
#include "core/full_model.hpp"

namespace pftk::model {
namespace {

ModelParams params(double p, double rtt = 0.2, double t0 = 2.0, int b = 2,
                   double wm = 64.0) {
  ModelParams mp;
  mp.p = p;
  mp.rtt = rtt;
  mp.t0 = t0;
  mp.b = b;
  mp.wm = wm;
  return mp;
}

TEST(ApproxModel, MatchesHandComputedFormula) {
  // eq (33) evaluated by hand for p=0.02, b=2, RTT=0.2, T0=2.
  const double p = 0.02;
  const double td_term = 0.2 * std::sqrt(2.0 * 2.0 * p / 3.0);
  const double to_term =
      2.0 * std::min(1.0, 3.0 * std::sqrt(3.0 * 2.0 * p / 8.0)) * p * (1.0 + 32.0 * p * p);
  const double expected = std::min(64.0 / 0.2, 1.0 / (td_term + to_term));
  EXPECT_NEAR(approx_model_send_rate(params(p)), expected, 1e-12);
}

TEST(ApproxModel, CloseToFullModelInMeasuredLossRange) {
  // Section III verifies eq (33) tracks (32) well over the loss rates the
  // traces actually exhibit (roughly p <= 10%).
  for (double p = 0.002; p < 0.1; p *= 1.5) {
    const ModelParams mp = params(p);
    const double full = full_model_send_rate(mp);
    const double approx = approx_model_send_rate(mp);
    EXPECT_NEAR(approx / full, 1.0, 0.30) << "p=" << p;
  }
}

TEST(ApproxModel, ConservativeAtHighLoss) {
  // Beyond the measured range the approximation under-predicts (32):
  // its timeout term, built from small-p limits, overweights timeouts.
  for (const double p : {0.2, 0.3, 0.5}) {
    const ModelParams mp = params(p);
    EXPECT_LT(approx_model_send_rate(mp), full_model_send_rate(mp)) << "p=" << p;
  }
}

TEST(ApproxModel, WindowCeilingApplies) {
  const ModelParams mp = params(0.0001, 0.2, 2.0, 2, 10.0);
  EXPECT_DOUBLE_EQ(approx_model_send_rate(mp), 10.0 / 0.2);
}

TEST(ApproxModel, ZeroLossIsCeiling) {
  const ModelParams mp = params(0.0, 0.5, 2.0, 2, 20.0);
  EXPECT_DOUBLE_EQ(approx_model_send_rate(mp), 40.0);
}

TEST(ApproxModel, LossLimitedTermIgnoresWindow) {
  // Once Wm/RTT no longer binds, the rate is eq (33)'s loss term alone.
  ModelParams mp = params(0.05, 0.2, 2.0, 2, 400.0);
  const double large_window = approx_model_send_rate(mp);
  EXPECT_LT(large_window, mp.wm / mp.rtt);
  mp.wm = ModelParams::unlimited_window;
  EXPECT_EQ(approx_model_send_rate(mp), large_window);
}

TEST(ApproxModel, MonotoneDecreasingInLoss) {
  double prev = approx_model_send_rate(params(0.0005));
  for (double p = 0.001; p < 0.95; p += 0.01) {
    const double cur = approx_model_send_rate(params(p));
    EXPECT_LE(cur, prev * (1.0 + 1e-9)) << "p=" << p;
    prev = cur;
  }
}

TEST(ApproxModel, TimeoutTermSaturatesAtHighLoss) {
  // min(1, 3 sqrt(3bp/8)) == 1 for p >= 8/(27 b): check continuity there.
  const double p_sat = 8.0 / (27.0 * 2.0);
  const double below = approx_model_send_rate(params(p_sat * 0.999));
  const double above = approx_model_send_rate(params(p_sat * 1.001));
  EXPECT_NEAR(below / above, 1.0, 0.01);
}

TEST(ApproxModel, InvalidParamsThrow) {
  ModelParams mp = params(0.01);
  mp.wm = 0.0;
  EXPECT_THROW((void)approx_model_send_rate(mp), std::invalid_argument);
}

}  // namespace
}  // namespace pftk::model
