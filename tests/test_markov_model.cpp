#include <gtest/gtest.h>

#include <cfloat>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/full_model.hpp"
#include "core/markov_model.hpp"

namespace pftk::model {
namespace {

ModelParams fig12_params(double p) {
  // Fig. 12 operating point: RTT = 0.47 s, T0 = 3.2 s, Wm = 12.
  ModelParams mp;
  mp.p = p;
  mp.rtt = 0.47;
  mp.t0 = 3.2;
  mp.b = 2;
  mp.wm = 12.0;
  return mp;
}

TEST(MarkovModel, StationaryDistributionSumsToOne) {
  const MarkovModelResult r = markov_model_solve(fig12_params(0.05));
  const double total = std::accumulate(r.stationary.begin(), r.stationary.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MarkovModel, CloseToFullModelAtFig12OperatingPoint) {
  // The paper's Fig. 12: the numerically-solved Markov model closely
  // matches the closed form across the p sweep.
  for (const double p : {0.01, 0.02, 0.05, 0.1, 0.2, 0.3}) {
    const double markov = markov_model_send_rate(fig12_params(p));
    const double closed = full_model_send_rate(fig12_params(p));
    EXPECT_NEAR(markov / closed, 1.0, 0.35) << "p=" << p;
  }
}

TEST(MarkovModel, MonotoneDecreasingInLoss) {
  double prev = markov_model_send_rate(fig12_params(0.005));
  for (const double p : {0.01, 0.03, 0.08, 0.2, 0.4}) {
    const double cur = markov_model_send_rate(fig12_params(p));
    EXPECT_LT(cur, prev) << "p=" << p;
    prev = cur;
  }
}

TEST(MarkovModel, TimeoutFractionGrowsWithLoss) {
  const double low = markov_model_solve(fig12_params(0.01)).timeout_fraction;
  const double high = markov_model_solve(fig12_params(0.3)).timeout_fraction;
  EXPECT_LT(low, high);
  EXPECT_GT(low, 0.0);
  EXPECT_LE(high, 1.0);
}

TEST(MarkovModel, ExpectedStartWindowShrinksWithLoss) {
  const double low = markov_model_solve(fig12_params(0.01)).expected_start_window;
  const double high = markov_model_solve(fig12_params(0.3)).expected_start_window;
  EXPECT_GT(low, high);
  EXPECT_GE(high, 1.0);
}

TEST(MarkovModel, UnlimitedWindowIsTruncatedSanely) {
  ModelParams mp = fig12_params(0.05);
  mp.wm = ModelParams::unlimited_window;
  const MarkovModelResult r = markov_model_solve(mp);
  EXPECT_GT(r.send_rate, 0.0);
  // Truncation must not depend pathologically on the cap: doubling the
  // cap barely changes the rate.
  MarkovModelOptions wide;
  wide.max_window_states = 512;
  const MarkovModelResult r2 = markov_model_solve(mp, wide);
  EXPECT_NEAR(r.send_rate / r2.send_rate, 1.0, 0.02);
}

TEST(MarkovModel, SmallLossPinnedAtTheWindowCapMatchesTheClosedForm) {
  // At Wm = 8 a round survives with (1-p)^8, so p = 1e-6 keeps the
  // window pinned at Wm for millions of rounds, and at DBL_MIN no round
  // loss is representable at all. The chain must still answer, and
  // agree with eq (32), whose limit is Wm/RTT.
  for (const double p : {1e-6, 1e-12, DBL_MIN}) {
    ModelParams mp;
    mp.p = p;
    mp.rtt = 0.1;
    mp.t0 = 0.4;
    mp.wm = 8.0;
    const double markov = markov_model_send_rate(mp);
    const double closed = full_model_send_rate(mp);
    ASSERT_TRUE(std::isfinite(markov)) << "p=" << p;
    EXPECT_NEAR(markov / closed, 1.0, 1e-3) << "p=" << p;
  }
}

TEST(MarkovModel, RejectsZeroLoss) {
  EXPECT_THROW(markov_model_solve(fig12_params(0.0)), std::invalid_argument);
}

TEST(MarkovModel, RejectsTinyStateSpace) {
  MarkovModelOptions opt;
  opt.max_window_states = 2;
  EXPECT_THROW(markov_model_solve(fig12_params(0.05), opt), std::invalid_argument);
}

TEST(MarkovModel, ConvergesQuickly) {
  const MarkovModelResult r = markov_model_solve(fig12_params(0.05));
  EXPECT_LT(r.iterations, 10000u);
}

ModelParams large_b_params(int b) {
  ModelParams mp;
  mp.p = 1e-6;
  mp.rtt = 0.1;
  mp.t0 = 0.4;
  mp.wm = 8.0;
  mp.b = b;
  return mp;
}

TEST(MarkovModel, LargeBAnswersInUnderASecond) {
  // A window step takes b rounds, so at b = 10^5 slow start and the climb
  // to Wm span millions of rounds; rows sum each run of rounds that share
  // a window in closed form, so their cost follows Wm, not b.
  for (const int b : {100000, 1000000}) {
    const auto start = std::chrono::steady_clock::now();
    const double rate = markov_model_send_rate(large_b_params(b));
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(std::isfinite(rate)) << "b=" << b;
    EXPECT_GT(rate, 0.0) << "b=" << b;
    EXPECT_LT(took.count(), 1.0) << "b=" << b;
  }
}

TEST(MarkovModel, LargeBMatchesTheRoundByRoundWalk) {
  // Reference answers (%.17g) from summing the same chain one round at a
  // time; the closed-form runs must agree to rounding.
  const std::pair<int, double> walked[] = {
      {1000, 78.943520129249535}, {3000, 76.875249162626375}, {10000, 70.122133206498702}};
  for (const auto& [b, rate] : walked) {
    EXPECT_NEAR(markov_model_send_rate(large_b_params(b)) / rate, 1.0, 1e-8) << "b=" << b;
  }
}

}  // namespace
}  // namespace pftk::model
