// The micro-bench harness: the three disarmed-overhead gates in order,
// the interleaved-pair measurement catching a seam that doubles the
// work, the span gate's recorder handling and the pftk-bench-micro/4
// JSON.
#include "exp/micro_bench.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight/flight_recorder.hpp"

namespace {

using pftk::exp::MicroBenchConfig;
using pftk::exp::MicroBenchReport;

/// One smoke run shared by every test that only reads the report.
const MicroBenchReport& smoke_report() {
  static const MicroBenchReport report =
      pftk::exp::run_micro_bench(MicroBenchConfig::smoke());
  return report;
}

/// Every gate runs, for one pair.
MicroBenchConfig tiny_config() {
  MicroBenchConfig config = MicroBenchConfig::smoke();
  config.repeats = 1;
  return config;
}

/// A chain of dependent multiply-xorshift steps from `seed`: work the
/// optimizer can neither fold away nor share between two calls.
std::uint64_t spin(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x >> 7;
    x *= 0x9E3779B97F4A7C15ULL;
  }
  return x;
}

TEST(MicroBench, SmokeRunMeasuresTheThreeGatesInOrder) {
  const auto& report = smoke_report();
  const std::vector<std::vector<std::string>> expected = {
      {"obs", "event_queue.dispatch", "event_queue.dispatch_obs"},
      {"failpoint", "journal.serialize", "journal.serialize_failpoint"},
      {"span", "journal.serialize", "span.record_disarmed"},
  };
  ASSERT_EQ(report.gates.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& gate = report.gates[i];
    EXPECT_EQ(gate.name, expected[i][0]);
    EXPECT_EQ(gate.baseline, expected[i][1]);
    EXPECT_EQ(gate.seam, expected[i][2]);
    EXPECT_TRUE(std::isfinite(gate.ratio)) << gate.name;
    EXPECT_GT(gate.ratio, 0.0) << gate.name;
    EXPECT_EQ(gate.ok(), gate.ratio <= 1.10) << gate.name;
  }
  EXPECT_EQ(report.repeats, MicroBenchConfig::smoke().repeats);
}

TEST(MicroBench, ResultsAreExactlyTheFiveGateSeries) {
  const auto& report = smoke_report();
  std::vector<std::string> names;
  for (const auto& r : report.results) {
    names.push_back(r.name);
    EXPECT_TRUE(std::isfinite(r.value) && r.value > 0.0) << r.name;
    EXPECT_GT(r.items, 0u) << r.name;
  }
  const std::vector<std::string> expected = {
      "event_queue.dispatch", "event_queue.dispatch_obs", "journal.serialize",
      "journal.serialize_failpoint", "span.record_disarmed"};
  EXPECT_EQ(names, expected);
}

TEST(MicroBench, ASeamThatDoublesTheWorkFailsItsGate) {
  const pftk::exp::TimedLoop once{"test.once", "ns/step", 1'000'000,
                                  [] { return spin(1); }};
  const pftk::exp::TimedLoop twice{"test.twice", "ns/step", 1'000'000,
                                   [] { return spin(2) + spin(3); }};
  std::vector<pftk::exp::MicroBenchResult> results;
  const auto gate = pftk::exp::measure_gate("doubled", 7, once, twice, results);
  EXPECT_EQ(gate.name, "doubled");
  EXPECT_EQ(gate.baseline, "test.once");
  EXPECT_EQ(gate.seam, "test.twice");
  EXPECT_GT(gate.ratio, 1.10);
  EXPECT_FALSE(gate.ok());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "test.once");
  EXPECT_EQ(results[1].name, "test.twice");

  // A series already reported by an earlier gate is not repeated.
  (void)pftk::exp::measure_gate("again", 1, once, twice, results);
  EXPECT_EQ(results.size(), 2u);
}

TEST(MicroBench, SpanGateMeasuresDisarmedAndRestoresTheRecorder) {
  namespace flight = pftk::obs::flight;
  auto& recorder = flight::Recorder::instance();

  ASSERT_FALSE(flight::armed());
  (void)pftk::exp::run_micro_bench(tiny_config());
  EXPECT_FALSE(flight::armed());

  recorder.clear();
  recorder.arm(1 << 16);
  const auto report = pftk::exp::run_micro_bench(tiny_config());
  EXPECT_TRUE(flight::armed());
  {
    PFTK_SPAN("test.after_bench");
  }
  recorder.disarm();
  const auto drained = recorder.drain();
  recorder.clear();

  EXPECT_EQ(report.gates.size(), 3u);
  EXPECT_EQ(drained.dropped, 0u);
  std::size_t gate_spans = 0;
  std::size_t after_spans = 0;
  for (const auto& span : drained.spans) {
    gate_spans += span.name == "bench.span_site" ? 1 : 0;
    after_spans += span.name == "test.after_bench" ? 1 : 0;
  }
  EXPECT_EQ(gate_spans, 0u) << "the span gate ran armed";
  EXPECT_EQ(after_spans, 1u) << "the recorder was not armed again";
}

TEST(MicroBench, JsonIsSchemaFourWithOneObjectPerGate) {
  std::ostringstream os;
  pftk::exp::write_bench_json(os, smoke_report());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"pftk-bench-micro/4\""), std::string::npos);
  EXPECT_NE(json.find("\"gates\": ["), std::string::npos);
  EXPECT_EQ(json.find("\"derived\""), std::string::npos);
  EXPECT_EQ(json.find("\"equivalence\""), std::string::npos);
  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  for (const char* gate : {"obs", "failpoint", "span"}) {
    EXPECT_EQ(count(std::string("{\"name\": \"") + gate + "\", \"baseline\": "), 1u)
        << gate;
  }
  EXPECT_EQ(count("\"tolerance\": 1.1,"), 3u);
}

}  // namespace
