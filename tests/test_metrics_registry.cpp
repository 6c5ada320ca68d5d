// The metrics registry's contract: inclusive Prometheus-style bucket
// edges, NaN/inf rejection consistent with the stats-layer quantile
// guards, and a snapshot that is a deterministic function of what was
// recorded regardless of how many shards the work was spread over.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pftk::obs {
namespace {

TEST(MetricsRegistry, CountersAndGaugesRoundTripThroughSnapshot) {
  MetricsRegistry registry;
  const MetricId hits = registry.counter("hits_total", "hits");
  const MetricId depth = registry.gauge("depth", "high-water mark");
  registry.freeze(1);

  auto& shard = registry.shard(0);
  shard.add(hits);
  shard.add(hits, 4.0);
  shard.add(hits, -3.0);  // negative deltas are ignored, not subtracted
  shard.set(depth, 7.0);
  shard.set(depth, 5.0);  // last write wins within one shard

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  const MetricValue* h = snap.find("hits_total");
  const MetricValue* d = snap.find("depth");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(h->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(h->value, 5.0);
  EXPECT_EQ(d->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(d->value, 5.0);
  EXPECT_EQ(snap.find("absent"), nullptr);
}

TEST(MetricsRegistry, HistogramBucketEdgesAreInclusive) {
  MetricsRegistry registry;
  const MetricId lat = registry.histogram("lat_seconds", "latency", {1.0, 2.0});
  registry.freeze(1);
  auto& shard = registry.shard(0);

  shard.observe(lat, 0.5);  // below the first edge
  shard.observe(lat, 1.0);  // exactly on an edge: lands in that bucket (le)
  shard.observe(lat, std::nextafter(1.0, 2.0));  // just past the edge
  shard.observe(lat, 2.0);  // exactly on the last finite edge
  shard.observe(lat, 2.5);  // overflows into the implicit +inf bucket

  const MetricsSnapshot snap = registry.snapshot();
  const MetricValue* h = snap.find("lat_seconds");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->bounds.size(), 2u);
  ASSERT_EQ(h->buckets.size(), 3u);  // two finite edges + the +inf bucket
  EXPECT_EQ(h->buckets[0], 2u);      // 0.5 and 1.0
  EXPECT_EQ(h->buckets[1], 2u);      // 1.0+eps and 2.0
  EXPECT_EQ(h->buckets[2], 1u);      // 2.5
  EXPECT_EQ(h->count, 5u);
  EXPECT_DOUBLE_EQ(h->sum, 0.5 + 1.0 + std::nextafter(1.0, 2.0) + 2.0 + 2.5);
  EXPECT_EQ(h->rejected, 0u);
}

TEST(MetricsRegistry, HistogramRejectsNonFiniteObservations) {
  MetricsRegistry registry;
  const MetricId lat = registry.histogram("lat_seconds", "latency", {1.0});
  registry.freeze(1);
  auto& shard = registry.shard(0);

  shard.observe(lat, std::numeric_limits<double>::quiet_NaN());
  shard.observe(lat, std::numeric_limits<double>::infinity());
  shard.observe(lat, -std::numeric_limits<double>::infinity());
  shard.observe(lat, 0.5);

  const MetricsSnapshot snap = registry.snapshot();
  const MetricValue* h = snap.find("lat_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->rejected, 3u);  // counted, never silently dropped
  EXPECT_EQ(h->count, 1u);     // only the finite sample binned
  EXPECT_DOUBLE_EQ(h->sum, 0.5);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[1], 0u);
}

TEST(MetricsRegistry, RejectsBadDefinitionsAndLateRegistration) {
  MetricsRegistry registry;
  (void)registry.counter("dup", "first");
  EXPECT_THROW((void)registry.counter("dup", "again"), std::invalid_argument);
  EXPECT_THROW((void)registry.counter("", "anonymous"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("h", "unsorted", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)registry.histogram(
                   "h2", "inf edge", {std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  registry.freeze(2);
  EXPECT_THROW((void)registry.counter("late", "post-freeze"), std::logic_error);
  EXPECT_THROW(registry.freeze(2), std::logic_error);
  EXPECT_THROW((void)registry.shard(2), std::out_of_range);
}

/// Builds a registry with one counter, one gauge and one histogram,
/// spreads `samples` deterministic recordings round-robin across
/// `shards`, and returns the merged snapshot.
MetricsSnapshot sharded_snapshot(std::size_t shards) {
  MetricsRegistry registry;
  const MetricId n = registry.counter("n_total", "count");
  const MetricId peak = registry.gauge("peak", "max");
  const MetricId lat = registry.histogram("lat_seconds", "latency", {0.25, 0.5, 1.0});
  registry.freeze(shards);
  constexpr int kSamples = 1000;
  for (int i = 0; i < kSamples; ++i) {
    auto& shard = registry.shard(static_cast<std::size_t>(i) % shards);
    shard.add(n);
    shard.set(peak, static_cast<double>(i % 97));
    shard.observe(lat, static_cast<double>(i % 13) / 10.0);
  }
  return registry.snapshot();
}

TEST(MetricsRegistry, SnapshotIsIndependentOfShardCount) {
  // Counters/buckets sum and gauges take the max, so the merged snapshot
  // must not depend on which worker recorded what.
  const MetricsSnapshot one = sharded_snapshot(1);
  for (const std::size_t shards : {2u, 3u, 8u}) {
    const MetricsSnapshot many = sharded_snapshot(shards);
    ASSERT_EQ(many.metrics.size(), one.metrics.size());
    for (std::size_t i = 0; i < one.metrics.size(); ++i) {
      const MetricValue& a = one.metrics[i];
      const MetricValue& b = many.metrics[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_DOUBLE_EQ(a.value, b.value) << a.name << " @ " << shards;
      EXPECT_EQ(a.buckets, b.buckets) << a.name << " @ " << shards;
      EXPECT_EQ(a.count, b.count);
      // The sum regroups float additions across shards; allow rounding.
      EXPECT_NEAR(a.sum, b.sum, 1e-9);
    }
  }
}

TEST(MetricsSnapshot, MergeSumsCountersMaxesGaugesAndAppendsUnknown) {
  MetricsRegistry ra;
  const MetricId ca = ra.counter("c_total", "c");
  const MetricId ga = ra.gauge("g", "g");
  ra.freeze(1);
  ra.shard(0).add(ca, 3.0);
  ra.shard(0).set(ga, 10.0);
  MetricsSnapshot a = ra.snapshot();

  MetricsRegistry rb;
  const MetricId cb = rb.counter("c_total", "c");
  const MetricId gb = rb.gauge("g", "g");
  const MetricId extra = rb.counter("only_b_total", "b-only");
  rb.freeze(1);
  rb.shard(0).add(cb, 4.0);
  rb.shard(0).set(gb, 2.0);
  rb.shard(0).add(extra, 1.0);

  a.merge(rb.snapshot());
  EXPECT_DOUBLE_EQ(a.find("c_total")->value, 7.0);
  EXPECT_DOUBLE_EQ(a.find("g")->value, 10.0);  // max, not sum
  ASSERT_NE(a.find("only_b_total"), nullptr);
  EXPECT_DOUBLE_EQ(a.find("only_b_total")->value, 1.0);
}

TEST(MetricsSnapshot, SelfMergeDoublesAndKindMismatchThrows) {
  MetricsRegistry ra;
  (void)ra.counter("x", "as counter");
  ra.freeze(1);
  ra.shard(0).add(MetricId{0}, 2.0);
  MetricsSnapshot a = ra.snapshot();
  a.merge(a);
  EXPECT_DOUBLE_EQ(a.find("x")->value, 4.0);

  MetricsRegistry rb;
  (void)rb.gauge("x", "as gauge");
  rb.freeze(1);
  EXPECT_THROW(a.merge(rb.snapshot()), std::invalid_argument);
}

}  // namespace
}  // namespace pftk::obs
