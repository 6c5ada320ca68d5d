// Integration tests of the hour-trace and short-trace experiment drivers
// (shortened durations keep the suite fast; the benches run full length).
#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/hour_trace_experiment.hpp"
#include "exp/short_trace_experiment.hpp"

namespace pftk::exp {
namespace {

TEST(HourTraceExperiment, ProducesConsistentResult) {
  const PathProfile profile = profile_by_label("babel", "tove");
  HourTraceOptions opt;
  opt.duration = 600.0;
  opt.seed = 7;
  const HourTraceResult r = run_hour_trace(profile, opt);

  EXPECT_EQ(r.profile.label(), "babel -> tove");
  EXPECT_NEAR(r.duration, 600.0, 1e-9);
  EXPECT_GT(r.summary.packets_sent, 1000u);
  EXPECT_GT(r.summary.loss_indications, 0u);
  EXPECT_EQ(r.intervals.size(), 6u);

  // Interval packet counts must sum to the trace total.
  std::uint64_t interval_sum = 0;
  for (const auto& obs : r.intervals) {
    interval_sum += obs.packets_sent;
  }
  EXPECT_EQ(interval_sum, r.summary.packets_sent);

  // Trace params carry the measured values.
  EXPECT_NEAR(r.trace_params.p, r.summary.observed_p, 1e-12);
  EXPECT_GT(r.trace_params.rtt, 0.15);
  EXPECT_EQ(r.trace_params.b, 2);
  EXPECT_DOUBLE_EQ(r.trace_params.wm, profile.advertised_window);
  EXPECT_TRUE(r.trace_params.valid());

  // Measured send rate ties out with packet count.
  EXPECT_NEAR(r.measured_send_rate,
              static_cast<double>(r.summary.packets_sent) / 600.0, 1e-6);
}

TEST(HourTraceExperiment, DeterministicPerSeed) {
  const PathProfile profile = profile_by_label("manic", "spiff");
  HourTraceOptions opt;
  opt.duration = 300.0;
  const HourTraceResult a = run_hour_trace(profile, opt);
  const HourTraceResult b = run_hour_trace(profile, opt);
  EXPECT_EQ(a.summary.packets_sent, b.summary.packets_sent);
  EXPECT_EQ(a.summary.loss_indications, b.summary.loss_indications);
}

TEST(HourTraceExperiment, TimeoutsDominateOnTimeoutProfiles) {
  // The paper's central observation: TOs are the majority of indications
  // on most paths. Check a profile calibrated for whole-flight losses.
  const PathProfile profile = profile_by_label("babel", "alps");
  HourTraceOptions opt;
  opt.duration = 900.0;
  const HourTraceResult r = run_hour_trace(profile, opt);
  EXPECT_GT(r.summary.timeout_fraction(), 0.5);
}

TEST(HourTraceExperiment, FaultScheduleStatsReachTheResult) {
  HourTraceOptions opt;
  opt.duration = 60.0;
  opt.interval_length = 20.0;
  opt.forward_faults = sim::FaultSchedule::parse("loss@0+60:0.2");
  const HourTraceResult r = run_hour_trace(profile_by_label("manic", "ganef"), opt);
  EXPECT_GT(r.forward_faults.offered, 0u);
  EXPECT_GT(r.forward_faults.dropped_loss, 0u);
}

TEST(HourTraceExperiment, RejectsBadOptions) {
  const PathProfile profile = table2_profiles().front();
  HourTraceOptions opt;
  opt.duration = 0.0;
  EXPECT_THROW(run_hour_trace(profile, opt), std::invalid_argument);
  opt.duration = 100.0;
  opt.interval_length = -1.0;
  EXPECT_THROW(run_hour_trace(profile, opt), std::invalid_argument);
}

TEST(ShortTraceExperiment, ProducesOneRecordPerConnection) {
  const PathProfile profile = profile_by_label("manic", "ganef");
  ShortTraceOptions opt;
  opt.connections = 10;
  opt.duration = 100.0;
  const auto records = run_short_traces(profile, opt);
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].index, i);
    EXPECT_GT(records[static_cast<std::size_t>(i)].packets_sent, 0u);
  }
}

TEST(ShortTraceExperiment, PerTraceParametersVary) {
  const PathProfile profile = profile_by_label("void", "ganef");
  ShortTraceOptions opt;
  opt.connections = 12;
  const auto records = run_short_traces(profile, opt);
  // Different seeds -> different measured loss rates on at least two.
  bool vary = false;
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].params.p != records[0].params.p) {
      vary = true;
    }
  }
  EXPECT_TRUE(vary);
}

TEST(ShortTraceExperiment, PredictionsFilledForAllModels) {
  const PathProfile profile = profile_by_label("pif", "imagine");
  ShortTraceOptions opt;
  opt.connections = 5;
  const auto records = run_short_traces(profile, opt);
  for (const ShortTraceRecord& rec : records) {
    if (!rec.had_loss) {
      continue;
    }
    for (const double pred : rec.predicted) {
      EXPECT_GT(pred, 0.0);
      EXPECT_TRUE(std::isfinite(pred));
    }
    // Full model prediction below TD-only (timeouts slow TCP down).
    EXPECT_LT(rec.predicted[0], rec.predicted[2] * 1.5);
  }
}

TEST(ShortTraceExperiment, FaultSchedulesApplyPerConnection) {
  ShortTraceOptions opt;
  opt.connections = 2;
  opt.duration = 30.0;
  opt.forward_faults = sim::FaultSchedule::parse("loss@0+30:0.2");
  const auto records = run_short_traces(profile_by_label("manic", "ganef"), opt);
  ASSERT_EQ(records.size(), 2u);
  for (const ShortTraceRecord& rec : records) {
    EXPECT_GT(rec.forward_faults.dropped_loss, 0u) << "trace " << rec.index;
  }
}

TEST(ShortTraceExperiment, RejectsBadOptions) {
  const PathProfile profile = table2_profiles().front();
  ShortTraceOptions opt;
  opt.connections = 0;
  EXPECT_THROW(run_short_traces(profile, opt), std::invalid_argument);
}

}  // namespace
}  // namespace pftk::exp
