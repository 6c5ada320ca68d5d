// RunReport::merge folds batch reports deterministically: counters sum,
// fault stats add, metrics merge by name, and the right-hand side's
// failures land after ours in their original order.
#include <gtest/gtest.h>

#include "exp/run_report.hpp"

namespace pftk::exp {
namespace {

TEST(RunReport, MergeSumsCountersAndFaultStats) {
  RunReport a;
  a.record_success();
  a.record_success();
  a.forward_faults.offered = 100;
  a.forward_faults.dropped_blackout = 5;
  a.reverse_faults.offered = 50;

  RunReport b;
  b.record_success();
  b.record_failure("c->d/s2", "watchdog: stall");
  b.forward_faults.offered = 10;
  b.forward_faults.dropped_loss = 3;
  b.reverse_faults.delayed = 2;

  a.merge(b);
  EXPECT_EQ(a.attempted, 4u);
  EXPECT_EQ(a.succeeded, 3u);
  EXPECT_EQ(a.forward_faults.offered, 110u);
  EXPECT_EQ(a.forward_faults.dropped_blackout, 5u);
  EXPECT_EQ(a.forward_faults.dropped_loss, 3u);
  EXPECT_EQ(a.reverse_faults.offered, 50u);
  EXPECT_EQ(a.reverse_faults.delayed, 2u);
  EXPECT_FALSE(a.all_ok());
}

TEST(RunReport, MergeAppendsFailuresInStableOrder) {
  RunReport a;
  a.record_failure("first", "e1");
  RunReport b;
  b.record_failure("second", "e2");
  b.record_failure("third", "e3");

  a.merge(b);
  ASSERT_EQ(a.failures.size(), 3u);
  EXPECT_EQ(a.failures[0].label, "first");
  EXPECT_EQ(a.failures[1].label, "second");
  EXPECT_EQ(a.failures[2].label, "third");
}

TEST(RunReport, MergeIsChainableAndEmptyMergeIsIdentity) {
  RunReport a;
  a.record_success();
  RunReport b;
  b.record_success();
  RunReport empty;
  a.merge(b).merge(empty);
  EXPECT_EQ(a.attempted, 2u);
  EXPECT_EQ(a.succeeded, 2u);
  EXPECT_TRUE(a.all_ok());
}

/// A report carrying one success and one counter metric.
RunReport report_with_metrics(double counter_value) {
  RunReport report;
  report.record_success();
  obs::MetricsRegistry registry;
  const obs::MetricId runs = registry.counter("pftk_runs_total", "runs");
  registry.freeze(1);
  registry.shard(0).add(runs, counter_value);
  report.metrics = registry.snapshot();
  return report;
}

TEST(RunReport, MergeFoldsMetricsByName) {
  RunReport a = report_with_metrics(3.0);
  const RunReport b = report_with_metrics(4.0);
  a.merge(b);
  const obs::MetricValue* runs = a.metrics.find("pftk_runs_total");
  ASSERT_NE(runs, nullptr);
  EXPECT_DOUBLE_EQ(runs->value, 7.0);  // merged by name, not appended
  EXPECT_EQ(a.metrics.metrics.size(), 1u);
}

TEST(RunReport, SelfMergeDoublesEveryAdditiveField) {
  RunReport a = report_with_metrics(3.0);
  a.record_failure("c->d/s2", "boom");
  a.merge(a);  // must copy internally, not self-insert
  EXPECT_EQ(a.attempted, 4u);
  EXPECT_EQ(a.succeeded, 2u);
  EXPECT_EQ(a.failures.size(), 2u);
  EXPECT_DOUBLE_EQ(a.metrics.find("pftk_runs_total")->value, 6.0);
}

}  // namespace
}  // namespace pftk::exp
