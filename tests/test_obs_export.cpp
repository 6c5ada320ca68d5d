// The exporters' contract: Prometheus text follows the exposition
// conventions (cumulative le buckets, _sum/_count), the pftk-obs/1 JSONL
// round-trips losslessly, and the lenient reader salvages damaged files
// line by line — but refuses files that are not obs files at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "robust/durable_file.hpp"

namespace pftk::obs {
namespace {

/// A string every JSON writer must escape: quote, backslash, newline and
/// a control byte with no short escape.
const std::string kAwkward = "q\"b\\s\nc\x01" "d";

/// A snapshot with one of each metric kind and interesting values.
MetricsSnapshot sample_snapshot() {
  MetricsRegistry registry;
  const MetricId sent = registry.counter("pftk_sent_total", "segments sent");
  const MetricId peak = registry.gauge("pftk_peak", "heap high-water");
  // Exactly-representable bounds, so the exposition text is predictable.
  const MetricId lat =
      registry.histogram("pftk_lat_seconds", "latency", {0.25, 0.5, 1.0});
  registry.freeze(1);
  auto& shard = registry.shard(0);
  shard.add(sent, 42.0);
  shard.set(peak, 17.0);
  shard.observe(lat, 0.125);
  shard.observe(lat, 0.25);
  shard.observe(lat, 0.75);
  shard.observe(lat, 3.0);
  return registry.snapshot();
}

ObsBundle sample_bundle() {
  ObsBundle bundle;
  bundle.source = "test";
  bundle.metrics = sample_snapshot();
  bundle.events.push_back({0.5, ConnEventKind::kSlowStartEnter, 1.0, 1e9});
  bundle.events.push_back({1.25, ConnEventKind::kRtoFire, 2.0, 3.5});
  bundle.events_dropped = 3;
  return bundle;
}

TEST(ObsExport, PrometheusTextFollowsExpositionConventions) {
  std::ostringstream os;
  write_prometheus(os, sample_snapshot());
  const std::string text = os.str();

  EXPECT_NE(text.find("# HELP pftk_sent_total segments sent\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pftk_sent_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("pftk_sent_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pftk_peak gauge\n"), std::string::npos);
  EXPECT_NE(text.find("pftk_peak 17\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pftk_lat_seconds histogram\n"), std::string::npos);
  // Buckets are cumulative: 2 at le=0.25 (0.125 and the inclusive edge
  // 0.25), still 2 at le=0.5, 3 at le=1.0, 4 at +Inf.
  EXPECT_NE(text.find("pftk_lat_seconds_bucket{le=\"0.25\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("pftk_lat_seconds_bucket{le=\"0.5\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("pftk_lat_seconds_bucket{le=\"1\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("pftk_lat_seconds_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("pftk_lat_seconds_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("pftk_lat_seconds_sum "), std::string::npos);
}

TEST(ObsExport, JsonlRoundTripIsLossless) {
  ObsBundle original = sample_bundle();
  original.source = kAwkward;
  std::stringstream stream;
  write_obs_jsonl(stream, original);

  ObsReadReport report;
  const ObsBundle back = read_obs_jsonl(stream, &report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(back.source, kAwkward);
  EXPECT_EQ(back.events_dropped, 3u);

  ASSERT_EQ(back.metrics.metrics.size(), original.metrics.metrics.size());
  for (std::size_t i = 0; i < original.metrics.metrics.size(); ++i) {
    const MetricValue& a = original.metrics.metrics[i];
    const MetricValue& b = back.metrics.metrics[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.help, b.help);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_DOUBLE_EQ(a.value, b.value);
    EXPECT_EQ(a.bounds, b.bounds);
    EXPECT_EQ(a.buckets, b.buckets);
    EXPECT_EQ(a.count, b.count);
    EXPECT_DOUBLE_EQ(a.sum, b.sum);
    EXPECT_EQ(a.rejected, b.rejected);
  }

  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_DOUBLE_EQ(back.events[0].t, 0.5);
  EXPECT_EQ(back.events[0].kind, ConnEventKind::kSlowStartEnter);
  EXPECT_DOUBLE_EQ(back.events[0].aux, 1e9);
  EXPECT_EQ(back.events[1].kind, ConnEventKind::kRtoFire);
  EXPECT_DOUBLE_EQ(back.events[1].value, 2.0);
}

TEST(ObsExport, CountersRoundTripExactlyAtFullU64Width) {
  // Integers never pass through a double: 2^53 + 1 and UINT64_MAX read
  // back as written, not as 2^53 and 0.
  constexpr std::uint64_t kOdd = (std::uint64_t{1} << 53) + 1;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ObsBundle original;
  original.source = "test";
  original.events_dropped = kMax;
  MetricValue hist;
  hist.name = "pftk_wide";
  hist.help = "wide counts";
  hist.kind = MetricKind::kHistogram;
  hist.bounds = {1.0};
  hist.buckets = {kOdd, kMax};
  hist.count = kMax;
  hist.rejected = kOdd;
  original.metrics.metrics.push_back(hist);
  std::stringstream stream;
  write_obs_jsonl(stream, original);

  ObsReadReport report;
  const ObsBundle back = read_obs_jsonl(stream, &report);
  ASSERT_TRUE(report.clean()) << report.first_error;
  EXPECT_EQ(back.events_dropped, kMax);
  ASSERT_EQ(back.metrics.metrics.size(), 1u);
  EXPECT_EQ(back.metrics.metrics[0].buckets, (std::vector<std::uint64_t>{kOdd, kMax}));
  EXPECT_EQ(back.metrics.metrics[0].count, kMax);
  EXPECT_EQ(back.metrics.metrics[0].rejected, kOdd);
}

TEST(ObsExport, CutOrOverflowingLinesAreDroppedAndCounted) {
  // A metric line cut inside its last number is torn, not the value 12;
  // a count one past UINT64_MAX is damage, not a wrapped 0.
  std::istringstream is(
      "{\"schema\":\"pftk-obs/1\",\"kind\":\"header\",\"source\":\"a\\u0001b\","
      "\"events_dropped\":0}\n"
      "{\"kind\":\"metric\",\"type\":\"counter\",\"name\":\"x\",\"help\":\"y\","
      "\"value\":12\n"
      "{\"kind\":\"metric\",\"type\":\"histogram\",\"name\":\"h\",\"help\":\"y\","
      "\"bounds\":[],\"buckets\":[18446744073709551616],\"count\":0,\"sum\":0,"
      "\"rejected\":0}\n");
  ObsReadReport report;
  const ObsBundle back = read_obs_jsonl(is, &report);
  EXPECT_EQ(report.lines_dropped, 2u);
  EXPECT_TRUE(back.metrics.metrics.empty());
  EXPECT_EQ(back.source, "a\x01" "b");  // \u0001 decodes to its byte
}

TEST(ObsExport, LenientReaderSalvagesDamagedLines) {
  std::stringstream stream;
  write_obs_jsonl(stream, sample_bundle());
  std::string text = stream.str();

  // Corrupt one metric line and append a torn tail — both must be
  // dropped and counted, everything else salvaged.
  const std::size_t at = text.find("\"name\":\"pftk_peak\"");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, "\"nope\"");
  text += "{\"kind\":\"event\",\"t\":9.9,\"even";

  std::istringstream is(text);
  ObsReadReport report;
  const ObsBundle back = read_obs_jsonl(is, &report);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.lines_dropped, 2u);
  EXPECT_FALSE(report.first_error.empty());
  EXPECT_EQ(back.metrics.metrics.size(), 2u);  // the gauge line was lost
  EXPECT_EQ(back.events.size(), 2u);
}

TEST(ObsExport, RejectsFilesWithoutAValidHeader) {
  std::istringstream empty("");
  EXPECT_THROW((void)read_obs_jsonl(empty), std::invalid_argument);

  std::istringstream garbage("this is a TSV trace\n1\t2\t3\n");
  EXPECT_THROW((void)read_obs_jsonl(garbage), std::invalid_argument);

  std::istringstream wrong_schema(
      "{\"schema\":\"pftk-obs/999\",\"kind\":\"header\",\"source\":\"x\","
      "\"events_dropped\":0}\n");
  EXPECT_THROW((void)read_obs_jsonl(wrong_schema), std::invalid_argument);
}

TEST(ObsExport, UnknownRecordKindsAreSkippedNotFatal) {
  // Forward compatibility: a future writer may add record kinds; today's
  // reader must count them as dropped and keep going. The per-item
  // `span` records older campaign exports carried are read the same way.
  std::istringstream is(
      "{\"schema\":\"pftk-obs/1\",\"kind\":\"header\",\"source\":\"x\","
      "\"events_dropped\":0}\n"
      "{\"kind\":\"span\",\"name\":\"a->b/s1/clean/full\",\"outcome\":\"ok\","
      "\"attempts\":1,\"total_s\":0.5,\"backoff_s\":0,\"journal_writes\":1,"
      "\"journal_bytes\":120,\"phases\":[{\"phase\":\"attempt\",\"s\":0.5,"
      "\"detail\":\"ok\"}]}\n"
      "{\"kind\":\"hologram\",\"data\":1}\n"
      "{\"kind\":\"event\",\"t\":1,\"event\":\"rto_fire\",\"value\":1,\"aux\":0}\n");
  ObsReadReport report;
  const ObsBundle back = read_obs_jsonl(is, &report);
  EXPECT_EQ(report.lines_dropped, 2u);
  EXPECT_EQ(report.first_error, "line 2: unknown record kind 'span'");
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].kind, ConnEventKind::kRtoFire);
}

TEST(ObsExport, FileWrappersPickFormatBySuffix) {
  EXPECT_TRUE(is_prometheus_path("metrics.prom"));
  EXPECT_FALSE(is_prometheus_path("metrics.jsonl"));
  EXPECT_FALSE(is_prometheus_path("prom"));

  const std::string dir = ::testing::TempDir();
  const std::string jsonl_path = dir + "pftk_obs_roundtrip.jsonl";
  save_obs_file(jsonl_path, sample_bundle());
  ObsReadReport report;
  const ObsBundle back = load_obs_file(jsonl_path, &report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(back.source, "test");
  EXPECT_EQ(back.events.size(), 2u);

  const std::string prom_path = dir + "pftk_obs_roundtrip.prom";
  save_obs_file(prom_path, sample_bundle());
  EXPECT_THROW((void)load_obs_file(prom_path), std::invalid_argument);

  EXPECT_THROW(save_obs_file(dir + "no/such/dir/x.jsonl", sample_bundle()),
               pftk::robust::IoError);
  EXPECT_THROW((void)load_obs_file(dir + "pftk_obs_missing.jsonl"),
               std::invalid_argument);
}

}  // namespace
}  // namespace pftk::obs
