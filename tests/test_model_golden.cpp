// Golden values for the eq-32, eq-33 and eq-20 send rates and the eq-37
// throughput. tests/data/model_golden.tsv pins each answer bit for bit;
// every entry point (the scalar functions, PreparedModel's call and span
// forms, evaluate_batch_p) must reproduce it exactly, because they all
// run the one kernel per equation in core/model_kernels.hpp. The
// independent oracles stay elsewhere: the eq-22 summation for Qhat
// (test_model_terms) and the Fig-12 Markov model (test_markov_model).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/approx_model.hpp"
#include "core/batch_eval.hpp"
#include "core/full_model.hpp"
#include "core/model_registry.hpp"
#include "core/td_only_model.hpp"
#include "core/throughput_model.hpp"

namespace {

using namespace pftk::model;

struct GoldenRow {
  ModelParams params;
  double full = 0.0;
  double approx = 0.0;
  double td_only = 0.0;
  double throughput = 0.0;
};

/// Reads the table; strtod reads both %.17g and %a exactly.
std::vector<GoldenRow> load_golden() {
  std::ifstream is(std::string(PFTK_TEST_DATA_DIR) + "/model_golden.tsv");
  std::vector<GoldenRow> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string f[9];
    for (std::string& field : f) {
      std::getline(fields, field, '\t');
    }
    const auto num = [](const std::string& s) { return std::strtod(s.c_str(), nullptr); };
    GoldenRow row;
    row.params = ModelParams{num(f[0]), num(f[1]), num(f[2]), std::stoi(f[3]), num(f[4])};
    row.full = num(f[5]);
    row.approx = num(f[6]);
    row.td_only = num(f[7]);
    row.throughput = num(f[8]);
    rows.push_back(row);
  }
  return rows;
}

const std::vector<GoldenRow>& golden() {
  static const std::vector<GoldenRow> rows = load_golden();
  return rows;
}

double want(const GoldenRow& row, ModelKind kind) {
  switch (kind) {
    case ModelKind::kFull:
      return row.full;
    case ModelKind::kApproximate:
      return row.approx;
    case ModelKind::kTdOnly:
      return row.td_only;
  }
  return 0.0;
}

TEST(ModelGolden, TableCoversTheDomainAndBothRegimes) {
  const auto& rows = golden();
  ASSERT_GE(rows.size(), 200u);
  int zero_p = 0, top_p = 0, unlimited = 0, window_limited = 0, unconstrained = 0,
      floored = 0;
  bool b_seen[9] = {};
  for (const GoldenRow& row : rows) {
    const ModelParams& mp = row.params;
    ASSERT_TRUE(mp.valid()) << mp.describe();
    zero_p += mp.p == 0.0;
    top_p += mp.p == 0.999;
    unlimited += mp.wm == ModelParams::unlimited_window;
    b_seen[std::min(mp.b, 8)] = true;
    if (mp.p > 0.0) {
      const FullModelBreakdown bd = full_model_breakdown(mp);
      window_limited += bd.window_limited;
      unconstrained += !bd.window_limited;
      floored += !bd.window_limited && bd.expected_window_unconstrained < 1.0;
    }
  }
  EXPECT_GT(zero_p, 0);
  EXPECT_GT(top_p, 0);
  EXPECT_GT(unlimited, 0);
  EXPECT_GT(window_limited, 0);
  EXPECT_GT(unconstrained, 0);
  EXPECT_GT(floored, 0) << "no row reaches the E[W] >= 1 floor";
  for (int b = 1; b <= 8; ++b) {
    EXPECT_TRUE(b_seen[b]) << "b=" << b;
  }
}

TEST(ModelGolden, ScalarEntryPointsMatchBitForBit) {
  for (const GoldenRow& row : golden()) {
    const ModelParams& mp = row.params;
    for (const ModelKind kind : all_model_kinds) {
      EXPECT_EQ(evaluate_model(kind, mp), want(row, kind))
          << model_name(kind) << " @ " << mp.describe();
    }
    EXPECT_EQ(full_model_send_rate(mp), row.full) << mp.describe();
    EXPECT_EQ(full_model_breakdown(mp).send_rate, row.full) << mp.describe();
    EXPECT_EQ(approx_model_send_rate(mp), row.approx) << mp.describe();
    EXPECT_EQ(td_only_asymptotic_send_rate(mp), row.td_only) << mp.describe();
    EXPECT_EQ(throughput_model_rate(mp), row.throughput) << mp.describe();
  }
}

TEST(ModelGolden, PreparedPathsMatchBitForBit) {
  for (const GoldenRow& row : golden()) {
    const ModelParams& mp = row.params;
    for (const ModelKind kind : all_model_kinds) {
      const PreparedModel prepared(kind, mp);
      EXPECT_EQ(prepared(mp.p), want(row, kind))
          << model_name(kind) << " @ " << mp.describe();
      double out = -1.0;
      prepared.evaluate({&mp.p, 1}, {&out, 1});
      EXPECT_EQ(out, want(row, kind)) << model_name(kind) << " @ " << mp.describe();
      out = -1.0;
      evaluate_batch_p(kind, mp, {&mp.p, 1}, {&out, 1});
      EXPECT_EQ(out, want(row, kind)) << model_name(kind) << " @ " << mp.describe();
    }
  }
}

}  // namespace
