// Flight recorder core: armed/disarmed gating, SPSC ring
// overwrite-oldest semantics, multi-thread drain merging, and the
// pftk-spans/1 export/load round trip.
//
// The recorder is a process singleton whose per-thread ring capacity is
// fixed by the first arm() in the process, so every test here arms with
// the same small capacity (kCap) and clears between tests.
#include "obs/flight/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/flight/span_export.hpp"
#include "trace/trace_io.hpp"

namespace flight = pftk::obs::flight;

namespace {

constexpr std::size_t kCap = 8;

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flight::Recorder::instance().disarm();
    flight::Recorder::instance().clear();
  }
  void TearDown() override {
    flight::Recorder::instance().disarm();
    flight::Recorder::instance().clear();
  }
};

TEST_F(FlightRecorderTest, DisarmedSitesRecordNothing) {
  ASSERT_FALSE(flight::armed());
  {
    PFTK_SPAN("unit.noop");
    flight::Recorder::instance().record_marker("unit.marker");
  }
  const auto drained = flight::Recorder::instance().drain();
  EXPECT_TRUE(drained.spans.empty());
  EXPECT_EQ(drained.dropped, 0u);
  EXPECT_EQ(drained.threads, 0u);
}

TEST_F(FlightRecorderTest, ArmedScopeRecordsNamedNestedSpans) {
  flight::Recorder::instance().arm(kCap);
  {
    PFTK_SPAN("unit.outer");
    {
      PFTK_SPAN("unit.inner", 42);
    }
  }
  flight::Recorder::instance().disarm();
  const auto drained = flight::Recorder::instance().drain();
  ASSERT_EQ(drained.spans.size(), 2u);
  EXPECT_EQ(drained.threads, 1u);
  EXPECT_EQ(drained.dropped, 0u);
  // Sorted parent-first: outer begins no later and ends no earlier.
  EXPECT_EQ(drained.spans[0].name, "unit.outer");
  EXPECT_EQ(drained.spans[1].name, "unit.inner");
  EXPECT_EQ(drained.spans[1].arg, 42u);
  EXPECT_LE(drained.spans[0].begin_ns, drained.spans[1].begin_ns);
  EXPECT_GE(drained.spans[0].end_ns, drained.spans[1].end_ns);
  EXPECT_LE(drained.spans[0].begin_ns, drained.spans[0].end_ns);
}

TEST_F(FlightRecorderTest, SpanOpenedWhileArmedDropsIfDisarmedBeforeClose) {
  flight::Recorder::instance().arm(kCap);
  {
    PFTK_SPAN("unit.cut_short");
    flight::Recorder::instance().disarm();
  }
  EXPECT_TRUE(flight::Recorder::instance().drain().spans.empty());
}

TEST_F(FlightRecorderTest, RingOverwritesOldestAndCountsDrops) {
  auto& rec = flight::Recorder::instance();
  rec.arm(kCap);
  for (std::uint64_t i = 0; i < kCap + 3; ++i) {
    rec.record("unit.wrap", i, i + 1, i);
  }
  rec.disarm();
  const auto drained = rec.drain();
  ASSERT_EQ(drained.spans.size(), kCap);
  EXPECT_EQ(drained.dropped, 3u);
  // The survivors are the newest kCap records: args 3 .. kCap+2.
  for (std::size_t i = 0; i < drained.spans.size(); ++i) {
    EXPECT_EQ(drained.spans[i].arg, i + 3) << "slot " << i;
  }
}

TEST_F(FlightRecorderTest, ExactlyCapacityRecordsDropNothing) {
  auto& rec = flight::Recorder::instance();
  rec.arm(kCap);
  for (std::uint64_t i = 0; i < kCap; ++i) {
    rec.record("unit.exact", i, i + 1);
  }
  rec.disarm();
  const auto drained = rec.drain();
  EXPECT_EQ(drained.spans.size(), kCap);
  EXPECT_EQ(drained.dropped, 0u);
}

TEST_F(FlightRecorderTest, ThreadsGetPrivateRingsMergedByDrain) {
  auto& rec = flight::Recorder::instance();
  rec.arm(kCap);
  constexpr int kThreads = 3;
  constexpr std::uint64_t kPerThread = 5;  // below kCap: nothing drops
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        rec.record("unit.mt", i * 10, i * 10 + 1, i);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  rec.disarm();
  const auto drained = rec.drain();
  EXPECT_EQ(drained.spans.size(), kThreads * kPerThread);
  EXPECT_EQ(drained.dropped, 0u);
  EXPECT_EQ(drained.threads, static_cast<std::uint32_t>(kThreads));
  std::set<std::uint32_t> tids;
  for (const auto& span : drained.spans) {
    tids.insert(span.tid);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(FlightRecorderTest, ClearDropsSpansButKeepsRecorderUsable) {
  auto& rec = flight::Recorder::instance();
  rec.arm(kCap);
  rec.record("unit.before", 0, 1);
  rec.disarm();
  rec.clear();
  EXPECT_TRUE(rec.drain().spans.empty());
  rec.arm(kCap);
  rec.record("unit.after", 0, 1);
  rec.disarm();
  const auto drained = rec.drain();
  ASSERT_EQ(drained.spans.size(), 1u);
  EXPECT_EQ(drained.spans[0].name, "unit.after");
}

TEST_F(FlightRecorderTest, JsonlRoundTripPreservesEverySpanField) {
  auto& rec = flight::Recorder::instance();
  rec.arm(kCap);
  rec.record("unit.rt \"quoted\" \\ \n \x01", 100, 250, 7);
  rec.record("unit.rt2", 300, 300);  // zero-length marker survives too
  rec.disarm();
  const auto drained = rec.drain();

  const std::string path =
      (std::filesystem::temp_directory_path() / "pftk_flight_rt.jsonl").string();
  flight::save_spans_file(path, drained, "unit-test");
  const auto loaded = flight::load_spans_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.spans.size(), drained.spans.size());
  EXPECT_EQ(loaded.dropped, drained.dropped);
  EXPECT_EQ(loaded.threads, drained.threads);
  for (std::size_t i = 0; i < loaded.spans.size(); ++i) {
    EXPECT_EQ(loaded.spans[i].name, drained.spans[i].name);
    EXPECT_EQ(loaded.spans[i].tid, drained.spans[i].tid);
    EXPECT_EQ(loaded.spans[i].begin_ns, drained.spans[i].begin_ns);
    EXPECT_EQ(loaded.spans[i].end_ns, drained.spans[i].end_ns);
    EXPECT_EQ(loaded.spans[i].arg, drained.spans[i].arg);
  }
}

TEST_F(FlightRecorderTest, JsonExtensionSelectsChromeTraceEvents) {
  auto& rec = flight::Recorder::instance();
  rec.arm(kCap);
  rec.record("unit.chrome", 1000, 3500, 9);
  rec.disarm();
  const auto drained = rec.drain();

  const std::string body = flight::render_chrome_json(drained, "unit-test");
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"unit.chrome\""), std::string::npos);
  // 1000 ns begin -> ts 1.000 us; 2500 ns duration -> dur 2.500 us.
  EXPECT_NE(body.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(body.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(body.find("\"schema\":\"pftk-spans/1\""), std::string::npos);

  const std::string path =
      (std::filesystem::temp_directory_path() / "pftk_flight_rt.json").string();
  flight::save_spans_file(path, drained, "unit-test");
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), body);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, TraceSaveIsAttributedToItsOwnSpan) {
  const std::vector<pftk::trace::TraceEvent> events(3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "pftk_flight_save.tsv").string();

  flight::Recorder::instance().arm(kCap);
  pftk::trace::save_trace_file(path, events);
  flight::Recorder::instance().disarm();
  std::remove(path.c_str());

  const auto drained = flight::Recorder::instance().drain();
  EXPECT_EQ(drained.dropped, 0u);
  const auto save = std::find_if(drained.spans.begin(), drained.spans.end(),
                                 [](const auto& s) { return s.name == "trace.save"; });
  ASSERT_NE(save, drained.spans.end());
  EXPECT_EQ(save->arg, events.size());
  EXPECT_LE(save->begin_ns, save->end_ns);
}

TEST_F(FlightRecorderTest, TraceLoadParsesInOneSpanOnTheCallingThread) {
  // Over 2 MiB of records: the whole image is still one parse, on the
  // thread that asked for the load.
  std::vector<pftk::trace::TraceEvent> events(100'000);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].t = 0.001 * static_cast<double>(i);
    events[i].seq = i;
    events[i].cwnd = 2.0;
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "pftk_flight_load.tsv").string();
  pftk::trace::save_trace_file(path, events);
  const auto file_bytes = std::filesystem::file_size(path);
  ASSERT_GT(file_bytes, std::uintmax_t{2} << 20);

  auto& rec = flight::Recorder::instance();
  rec.arm(kCap);
  rec.record_marker("unit.caller");
  const auto loaded = pftk::trace::load_trace_file(path);
  rec.disarm();
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), events.size());

  const auto drained = rec.drain();
  EXPECT_EQ(drained.dropped, 0u);
  const auto caller = std::find_if(drained.spans.begin(), drained.spans.end(),
                                   [](const auto& s) { return s.name == "unit.caller"; });
  ASSERT_NE(caller, drained.spans.end());
  std::size_t parses = 0;
  for (const auto& span : drained.spans) {
    EXPECT_NE(span.name, "trace.parse_chunk");
    EXPECT_NE(span.name, "trace.merge");
    if (span.name == "trace.parse") {
      ++parses;
      EXPECT_EQ(span.arg, file_bytes);
      EXPECT_EQ(span.tid, caller->tid);
    }
  }
  EXPECT_EQ(parses, 1u);
}

TEST_F(FlightRecorderTest, LoadRejectsMissingHeaderAndBadSpans) {
  namespace fs = std::filesystem;
  const std::string no_header = (fs::temp_directory_path() / "pftk_nohdr.jsonl").string();
  {
    std::ofstream out(no_header);
    out << "{\"kind\":\"span\",\"name\":\"x\",\"tid\":1,\"begin_ns\":0,"
           "\"end_ns\":1,\"arg\":0}\n";
  }
  EXPECT_THROW(flight::load_spans_file(no_header), std::invalid_argument);
  std::remove(no_header.c_str());

  const std::string backwards = (fs::temp_directory_path() / "pftk_back.jsonl").string();
  {
    std::ofstream out(backwards);
    out << "{\"schema\":\"pftk-spans/1\",\"kind\":\"header\",\"source\":\"t\","
           "\"spans\":1,\"dropped\":0,\"threads\":1}\n"
        << "{\"kind\":\"span\",\"name\":\"x\",\"tid\":1,\"begin_ns\":5,"
           "\"end_ns\":2,\"arg\":0}\n";
  }
  EXPECT_THROW(flight::load_spans_file(backwards), std::invalid_argument);
  std::remove(backwards.c_str());
}

/// Writes `body` to a temp span file and returns its path.
std::string write_span_file(const char* name, const std::string& body) {
  const std::string path = (std::filesystem::temp_directory_path() / name).string();
  std::ofstream(path) << body;
  return path;
}

std::string header(const char* spans, const char* dropped) {
  return std::string("{\"schema\":\"pftk-spans/1\",\"kind\":\"header\",\"source\":\"t\",") +
         "\"spans\":" + spans + ",\"dropped\":" + dropped + ",\"threads\":1}\n";
}

std::string span_line(const char* name, const char* tid) {
  return std::string("{\"kind\":\"span\",\"name\":\"") + name + "\",\"tid\":" + tid +
         ",\"begin_ns\":0,\"end_ns\":1,\"arg\":0}\n";
}

/// The message load_spans_file throws for `body`, or "" if it loads.
std::string load_error(const std::string& body) {
  const std::string path = write_span_file("pftk_spans_bad.jsonl", body);
  try {
    (void)flight::load_spans_file(path);
  } catch (const std::invalid_argument& e) {
    std::remove(path.c_str());
    return e.what();
  }
  std::remove(path.c_str());
  return "";
}

TEST_F(FlightRecorderTest, LoadRejectsCountersBeyondTheirWidthNamingTheLine) {
  // Integers are exact: one past UINT64_MAX is not a wrapped 0, and a tid
  // past UINT32_MAX is not truncated to 1.
  EXPECT_NE(load_error(header("0", "18446744073709551616")).find("line 1"),
            std::string::npos);
  EXPECT_NE(load_error(header("1", "0") + span_line("x", "4294967297")).find("line 2"),
            std::string::npos);
  EXPECT_EQ(load_error(header("1", "18446744073709551615") + span_line("x", "4294967295")),
            "");
}

TEST_F(FlightRecorderTest, HeaderSpanCountIsCheckedAgainstTheSpanLines) {
  // Lines lost after the drain count as dropped, so prof's verdict turns
  // indeterminate instead of violated.
  const std::string path = write_span_file(
      "pftk_spans_short.jsonl", header("3", "2") + span_line("a\\u0001", "1"));
  const auto loaded = flight::load_spans_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.spans.size(), 1u);
  EXPECT_EQ(loaded.spans[0].name, "a\x01");
  EXPECT_EQ(loaded.dropped, 4u);

  // More lines than the header counted is damage, named by line.
  const std::string extra = load_error(header("1", "0") + span_line("a", "1") +
                                       span_line("b", "1"));
  EXPECT_NE(extra.find("line 3"), std::string::npos) << extra;
}

}  // namespace
