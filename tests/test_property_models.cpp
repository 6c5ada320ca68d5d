// Property-based sweeps (parameterized gtest) over the model family:
// invariants that must hold at every point of the (p, RTT, T0, b, Wm)
// space, not just at hand-picked values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/approx_model.hpp"
#include "core/batch_eval.hpp"
#include "core/full_model.hpp"
#include "core/model_registry.hpp"
#include "core/model_terms.hpp"
#include "core/short_flow_model.hpp"
#include "core/td_only_model.hpp"
#include "core/throughput_model.hpp"

namespace pftk::model {
namespace {

// ---------------------------------------------------------------------
// Sweep 1: (p, b) grid — scale-free invariants.
// ---------------------------------------------------------------------
class LossAckSweep : public ::testing::TestWithParam<std::tuple<double, int>> {
 protected:
  [[nodiscard]] ModelParams params(double rtt = 0.2, double t0 = 2.0,
                                   double wm = ModelParams::unlimited_window) const {
    ModelParams mp;
    mp.p = std::get<0>(GetParam());
    mp.b = std::get<1>(GetParam());
    mp.rtt = rtt;
    mp.t0 = t0;
    mp.wm = wm;
    return mp;
  }
};

TEST_P(LossAckSweep, AllRatesArePositiveAndFinite) {
  const ModelParams mp = params();
  EXPECT_GT(full_model_send_rate(mp), 0.0);
  EXPECT_TRUE(std::isfinite(full_model_send_rate(mp)));
  EXPECT_GT(td_only_send_rate(mp), 0.0);
  EXPECT_GT(approx_model_send_rate(params(0.2, 2.0, 64.0)), 0.0);
}

TEST_P(LossAckSweep, TimeoutsOnlySlowTcpDown) {
  const ModelParams mp = params();
  EXPECT_LE(full_model_send_rate(mp), td_only_send_rate(mp) * (1.0 + 1e-9));
}

TEST_P(LossAckSweep, RateScalesInverselyWithRttInTdRegime) {
  // With a negligible timeout cost, halving RTT doubles the rate.
  const ModelParams slow = params(0.4, 1e-7);
  const ModelParams fast = params(0.2, 1e-7);
  EXPECT_NEAR(full_model_send_rate(fast) / full_model_send_rate(slow), 2.0, 0.01);
}

TEST_P(LossAckSweep, LongerTimeoutsNeverHelp) {
  const double short_to = full_model_send_rate(params(0.2, 0.5));
  const double long_to = full_model_send_rate(params(0.2, 5.0));
  EXPECT_GE(short_to, long_to * (1.0 - 1e-9));
}

TEST_P(LossAckSweep, WindowCapOnlyReduces) {
  const double open = full_model_send_rate(params());
  const double capped = full_model_send_rate(params(0.2, 2.0, 8.0));
  EXPECT_LE(capped, open * (1.0 + 1e-9));
  EXPECT_LE(capped, 8.0 / 0.2 * (1.0 + 1e-9));
}

TEST_P(LossAckSweep, ThroughputNeverExceedsSendRate) {
  const ModelParams mp = params(0.2, 2.0, 32.0);
  EXPECT_LE(throughput_model_rate(mp), full_model_send_rate(mp) * (1.0 + 1e-9));
}

TEST_P(LossAckSweep, ExpectedWindowAndRoundsArePositive) {
  const ModelParams mp = params();
  EXPECT_GE(expected_unconstrained_window(mp.p, mp.b), 1.0);
  EXPECT_GE(expected_rounds_unconstrained(mp.p, mp.b), 1.0);
}

TEST_P(LossAckSweep, BreakdownIsInternallyConsistent) {
  const FullModelBreakdown bd = full_model_breakdown(params(0.2, 2.0, 24.0));
  EXPECT_GT(bd.numerator_packets, 0.0);
  EXPECT_GT(bd.denominator_seconds, 0.0);
  EXPECT_GE(bd.q_hat, 0.0);
  EXPECT_LE(bd.q_hat, 1.0);
  EXPECT_LE(bd.expected_window, 24.0 + 1e-9);
  EXPECT_NEAR(bd.send_rate, bd.numerator_packets / bd.denominator_seconds, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LossAckSweep,
    ::testing::Combine(::testing::Values(0.0005, 0.002, 0.01, 0.03, 0.08, 0.15, 0.3, 0.5,
                                         0.7),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<double, int>>& info) {
      return "p" + std::to_string(static_cast<int>(std::get<0>(info.param) * 10000)) +
             "_b" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Sweep 2: window limitation boundary.
// ---------------------------------------------------------------------
class WindowSweep : public ::testing::TestWithParam<double> {};

TEST_P(WindowSweep, CeilingIsRespectedEverywhere) {
  const double wm = GetParam();
  for (double p = 0.0; p < 0.5; p += 0.02) {
    ModelParams mp;
    mp.p = p;
    mp.rtt = 0.25;
    mp.t0 = 1.5;
    mp.wm = wm;
    EXPECT_LE(full_model_send_rate(mp), wm / 0.25 * (1.0 + 1e-9))
        << "p=" << p << " wm=" << wm;
    EXPECT_LE(approx_model_send_rate(mp), wm / 0.25 * (1.0 + 1e-9));
    EXPECT_LE(throughput_model_rate(mp), wm / 0.25 * (1.0 + 1e-9));
  }
}

TEST_P(WindowSweep, MonotoneInWindow) {
  // A larger receiver window can only help.
  const double wm = GetParam();
  ModelParams small;
  small.p = 0.005;
  small.rtt = 0.25;
  small.t0 = 1.5;
  small.wm = wm;
  ModelParams big = small;
  big.wm = wm * 2.0;
  EXPECT_LE(full_model_send_rate(small), full_model_send_rate(big) * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(2.0, 6.0, 8.0, 16.0, 33.0, 48.0, 128.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "wm" + std::to_string(static_cast<int>(info.param));
                         });

// ---------------------------------------------------------------------
// Sweep 3: asymptotic agreement of all model forms as p -> 0 with an
// unconstrained window.
// ---------------------------------------------------------------------
class SmallPSweep : public ::testing::TestWithParam<double> {};

TEST_P(SmallPSweep, AllModelsConvergeToSqrtLaw) {
  const double p = GetParam();
  ModelParams mp;
  mp.p = p;
  mp.rtt = 0.3;
  mp.t0 = 2.0;
  mp.b = 2;
  mp.wm = ModelParams::unlimited_window;
  const double sqrt_law = std::sqrt(3.0 / (2.0 * 2.0 * p)) / 0.3;  // eq (20)
  EXPECT_NEAR(full_model_send_rate(mp) / sqrt_law, 1.0, 0.25) << "p=" << p;
  EXPECT_NEAR(approx_model_send_rate(mp) / sqrt_law, 1.0, 0.25) << "p=" << p;
  EXPECT_NEAR(td_only_send_rate(mp) / sqrt_law, 1.0, 0.25) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(TinyLoss, SmallPSweep,
                         ::testing::Values(1e-6, 3e-6, 1e-5, 3e-5, 1e-4),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "idx" + std::to_string(info.index);
                         });

// ---------------------------------------------------------------------
// Sweep 4: Inf/NaN audit. Every registered model (plus the throughput
// and short-flow forms) must return a finite, non-negative rate at every
// point of a [1e-6, 0.99] p-grid crossed with edge-case parameters —
// including the corners that used to leak (b large enough that eq (13)
// drops E[Wu] below one packet, Wm = 1, b = 1).
// ---------------------------------------------------------------------
class FiniteRateSweep
    : public ::testing::TestWithParam<std::tuple<int, double, double, double>> {
 protected:
  [[nodiscard]] ModelParams params(double p) const {
    ModelParams mp;
    mp.p = p;
    mp.b = std::get<0>(GetParam());
    mp.wm = std::get<1>(GetParam());
    mp.rtt = std::get<2>(GetParam());
    mp.t0 = std::get<3>(GetParam());
    return mp;
  }
  /// Log-spaced [1e-6, 0.99] grid plus the exact endpoints.
  [[nodiscard]] static std::vector<double> p_grid() {
    std::vector<double> grid;
    const double lo = std::log(1e-6);
    const double hi = std::log(0.99);
    constexpr int kPoints = 60;
    for (int i = 0; i < kPoints; ++i) {
      grid.push_back(std::exp(lo + (hi - lo) * i / (kPoints - 1)));
    }
    return grid;
  }
};

TEST_P(FiniteRateSweep, RegisteredModelsStayFiniteAndNonNegative) {
  for (const double p : p_grid()) {
    const ModelParams mp = params(p);
    for (const ModelKind kind : all_model_kinds) {
      const double rate = evaluate_model(kind, mp);
      EXPECT_TRUE(std::isfinite(rate)) << model_name(kind) << " @ " << mp.describe();
      EXPECT_GE(rate, 0.0) << model_name(kind) << " @ " << mp.describe();
    }
  }
}

TEST_P(FiniteRateSweep, BatchedPathAgreesWithScalarEverywhere) {
  const auto grid = p_grid();
  std::vector<double> batched(grid.size());
  for (const ModelKind kind : all_model_kinds) {
    evaluate_batch_p(kind, params(0.5), grid, batched);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(batched[i], evaluate_model(kind, params(grid[i])))
          << model_name(kind) << " @ p=" << grid[i];
    }
  }
}

TEST_P(FiniteRateSweep, ThroughputAndShortFlowStayFinite) {
  for (const double p : p_grid()) {
    const ModelParams mp = params(p);
    const double tput = throughput_model_rate(mp);
    EXPECT_TRUE(std::isfinite(tput)) << "T(p) @ " << mp.describe();
    EXPECT_GE(tput, 0.0) << "T(p) @ " << mp.describe();
    for (const std::uint64_t d : {std::uint64_t{1}, std::uint64_t{100}}) {
      const double latency = expected_transfer_latency(d, mp);
      EXPECT_TRUE(std::isfinite(latency)) << "d=" << d << " @ " << mp.describe();
      EXPECT_GT(latency, 0.0) << "d=" << d << " @ " << mp.describe();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeGrid, FiniteRateSweep,
    ::testing::Combine(::testing::Values(1, 2, 8),      // b, incl. stretch ACKs
                       ::testing::Values(1.0, 8.0, 64.0,
                                         ModelParams::unlimited_window),  // Wm
                       ::testing::Values(0.01, 0.2),    // RTT
                       ::testing::Values(0.05, 2.0)),   // T0
    [](const ::testing::TestParamInfo<std::tuple<int, double, double, double>>& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "_wm" +
             std::to_string(static_cast<int>(std::min(std::get<1>(info.param), 1e6))) +
             "_rtt" + std::to_string(static_cast<int>(std::get<2>(info.param) * 100)) +
             "_t0" + std::to_string(static_cast<int>(std::get<3>(info.param) * 100));
    });

TEST(NumericEdgeCases, LargeAckFactorAtHighLossNoLongerThrows) {
  // Regression: eq (13) gives E[Wu] = 0.876 here, below Qhat's w >= 1
  // domain, and the full model threw on perfectly valid params.
  ModelParams mp;
  mp.p = 0.9;
  mp.rtt = 0.2;
  mp.t0 = 2.0;
  mp.b = 8;
  mp.wm = 64.0;
  const double rate = full_model_send_rate(mp);
  EXPECT_TRUE(std::isfinite(rate));
  EXPECT_GT(rate, 0.0);
  EXPECT_TRUE(std::isfinite(throughput_model_rate(mp)));
}

}  // namespace
}  // namespace pftk::model
