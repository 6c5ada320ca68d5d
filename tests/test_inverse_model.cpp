// The inverse model: round trips through eq (32), the return rules, and
// tests/data/inverse_golden.tsv, which pins every max_p and wm_required
// bit for bit (both bisections must keep their answers exactly).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/full_model.hpp"
#include "core/inverse_model.hpp"

namespace pftk::model {
namespace {

ModelParams base() {
  ModelParams mp;
  mp.rtt = 0.2;
  mp.t0 = 2.0;
  mp.b = 2;
  mp.wm = 32.0;
  return mp;
}

TEST(MaxLossForRate, RoundTripsThroughTheForwardModel) {
  ModelParams mp = base();
  for (const double p : {0.005, 0.02, 0.08}) {
    mp.p = p;
    const double rate = full_model_send_rate(mp);
    const double recovered = max_loss_for_rate(base(), rate);
    EXPECT_NEAR(recovered / p, 1.0, 1e-6) << "p=" << p;
  }
}

double rate_at(ModelParams mp, double p) {
  mp.p = p;
  return full_model_send_rate(mp);
}

TEST(MaxLossForRate, NonzeroAnswerReachesItsTarget) {
  // Targets just under the Wm/RTT ceiling of 160 pkts/s, where eq (32) at
  // p = 1e-12 (159.999999952) is already below the target: the answer
  // must come from [0, 1e-12].
  const ModelParams near_ceiling{0.01, 0.2, 0.8, 2, 32.0};
  for (const double target : {160.0, 159.99999999984}) {
    const double p = max_loss_for_rate(near_ceiling, target);
    EXPECT_GT(p, 0.0) << "target=" << target;
    EXPECT_LT(p, 1e-12) << "target=" << target;
    EXPECT_GE(rate_at(near_ceiling, p), target) << "target=" << target << " p=" << p;
  }
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto logu = [&](double a, double b) { return std::pow(10.0, a + (b - a) * u(rng)); };
  for (int i = 0; i < 1000; ++i) {
    ModelParams mp;
    mp.rtt = logu(-4, 1);
    mp.t0 = logu(-3, 2);
    mp.b = 1 + static_cast<int>(rng() % 8);
    mp.wm = i % 4 == 0 ? ModelParams::unlimited_window : logu(0, 7);
    const double ceiling = mp.wm / mp.rtt;
    // Half the targets sit just under the ceiling, half anywhere below it.
    const double target =
        i % 2 == 0 ? ceiling * (1.0 - logu(-16, -6)) : ceiling * logu(-9, 0);
    const double p = max_loss_for_rate(mp, target);
    if (p > 0.0) {
      EXPECT_GE(rate_at(mp, p), target) << mp.describe() << " target=" << target;
    } else {
      EXPECT_LT(rate_at(mp, 0.0), target) << mp.describe() << " target=" << target;
    }
  }
}

TEST(MaxLossForRate, UnreachableTargetIsZero) {
  // Ceiling is Wm/RTT = 160 pkts/s; asking for more is impossible.
  EXPECT_EQ(max_loss_for_rate(base(), 200.0), 0.0);
}

TEST(MaxLossForRate, TrivialTargetToleratesHeavyLoss) {
  const double p = max_loss_for_rate(base(), 0.001);
  EXPECT_GT(p, 0.5);
}

TEST(MaxLossForRate, MonotoneInTarget) {
  double prev = 1.0;
  for (const double target : {1.0, 5.0, 20.0, 80.0, 150.0}) {
    const double p = max_loss_for_rate(base(), target);
    EXPECT_LE(p, prev + 1e-12) << "target=" << target;
    prev = p;
  }
}

TEST(RequiredWindowForRate, RoundTripsInWindowLimitedRegime) {
  // Pick a target below the loss-limited rate so a finite window exists;
  // forward-evaluating at the returned window must reach the target.
  ModelParams mp = base();
  mp.p = 0.001;  // loss-limited rate is high
  const double target = 100.0;
  const double wm = required_window_for_rate(mp, target);
  ASSERT_TRUE(std::isfinite(wm));
  mp.wm = wm;
  EXPECT_GE(full_model_send_rate(mp), target * 0.999);
  // And a slightly smaller window must miss it.
  mp.wm = wm * 0.95;
  EXPECT_LT(full_model_send_rate(mp), target);
}

TEST(RequiredWindowForRate, LossLimitedTargetIsInfinite) {
  ModelParams mp = base();
  mp.p = 0.05;  // loss-limited around 9 pkts/s
  EXPECT_TRUE(std::isinf(required_window_for_rate(mp, 50.0)));
}

TEST(RequiredWindowForRate, TinyTargetNeedsMinimalWindow) {
  ModelParams mp = base();
  mp.p = 0.01;
  EXPECT_DOUBLE_EQ(required_window_for_rate(mp, 0.01), 1.0);
}

struct InverseRow {
  ModelParams params;
  double rate = 0.0;
  double max_p = 0.0;
  double wm_required = 0.0;
};

/// Reads tests/data/inverse_golden.tsv; strtod reads %.17g and %a exactly.
std::vector<InverseRow> load_inverse_golden() {
  std::ifstream is(std::string(PFTK_TEST_DATA_DIR) + "/inverse_golden.tsv");
  std::vector<InverseRow> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string f[8];
    for (std::string& field : f) {
      std::getline(fields, field, '\t');
    }
    const auto num = [](const std::string& s) { return std::strtod(s.c_str(), nullptr); };
    rows.push_back({ModelParams{num(f[0]), num(f[1]), num(f[2]), std::stoi(f[3]), num(f[4])},
                    num(f[5]), num(f[6]), num(f[7])});
  }
  return rows;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(InverseGolden, TableReachesEveryReturnRule) {
  const auto rows = load_inverse_golden();
  ASSERT_GE(rows.size(), 2000u);
  int p_unreachable = 0, p_top = 0, wm_one = 0, wm_infinite = 0;
  for (const InverseRow& row : rows) {
    ASSERT_TRUE(row.params.valid()) << row.params.describe();
    // No row lies where eq (32) at p = 1e-12 misses a target that p = 0
    // reaches: those answers changed on purpose and are tested above.
    EXPECT_FALSE(rate_at(row.params, 0.0) >= row.rate && rate_at(row.params, 1e-12) < row.rate)
        << row.params.describe() << " rate=" << row.rate;
    p_unreachable += row.max_p == 0.0;
    p_top += row.max_p == 0.999;
    wm_one += row.wm_required == 1.0;
    wm_infinite += std::isinf(row.wm_required);
  }
  EXPECT_GT(p_unreachable, 0);
  EXPECT_GT(p_top, 0);
  EXPECT_GT(wm_one, 0);
  EXPECT_GT(wm_infinite, 0);
}

TEST(InverseGolden, AnswersMatchBitForBit) {
  for (const InverseRow& row : load_inverse_golden()) {
    EXPECT_EQ(bits(max_loss_for_rate(row.params, row.rate)), bits(row.max_p))
        << row.params.describe() << " rate=" << row.rate;
    EXPECT_EQ(bits(required_window_for_rate(row.params, row.rate)), bits(row.wm_required))
        << row.params.describe() << " rate=" << row.rate;
  }
}

TEST(InverseModel, RejectsBadTargets) {
  EXPECT_THROW((void)max_loss_for_rate(base(), 0.0), std::invalid_argument);
  ModelParams mp = base();
  mp.p = 0.01;
  EXPECT_THROW((void)required_window_for_rate(mp, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace pftk::model
