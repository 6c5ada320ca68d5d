// Round-trip and validation tests for the trace file format.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>

#include "exp/path_profile.hpp"
#include "sim/connection.hpp"
#include "trace/loss_classifier.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_validator.hpp"
#include "robust/durable_file.hpp"

namespace pftk::trace {
namespace {

std::vector<TraceEvent> simulated_trace() {
  sim::ConnectionConfig cfg;
  cfg.sender.advertised_window = 16.0;
  cfg.forward_link.propagation_delay = 0.08;
  cfg.reverse_link.propagation_delay = 0.08;
  cfg.forward_loss = sim::BernoulliLossSpec{0.02};
  cfg.sender.min_rto = 1.0;
  cfg.seed = 77;
  sim::Connection conn(cfg);
  TraceRecorder rec;
  conn.set_observer(&rec);
  conn.run_for(120.0);
  return rec.events();
}

/// Fixed/9 rounds by at most half a unit in the 9th decimal; the
/// parse-back adds at most an ulp-scale error on top.
double fixed9_tolerance(double x) {
  return 5e-10 + 1e-15 * std::max(1.0, std::fabs(x));
}

TEST(TraceIo, RoundTripPreservesEveryEvent) {
  const std::vector<TraceEvent> original = simulated_trace();
  ASSERT_GT(original.size(), 100u);

  const std::vector<TraceEvent> reloaded = read_trace(format_trace(original));

  ASSERT_EQ(reloaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const TraceEvent& a = original[i];
    const TraceEvent& b = reloaded[i];
    EXPECT_EQ(b.type, a.type) << "event " << i;
    EXPECT_NEAR(b.t, a.t, fixed9_tolerance(a.t)) << "event " << i;
    EXPECT_EQ(b.seq, a.seq) << "event " << i;
    EXPECT_EQ(b.retransmission, a.retransmission) << "event " << i;
    EXPECT_EQ(b.duplicate, a.duplicate) << "event " << i;
    EXPECT_EQ(b.consecutive, a.consecutive) << "event " << i;
    EXPECT_EQ(b.in_flight, a.in_flight) << "event " << i;
    EXPECT_NEAR(b.value, a.value, fixed9_tolerance(a.value)) << "event " << i;
    EXPECT_NEAR(b.cwnd, a.cwnd, fixed9_tolerance(a.cwnd)) << "event " << i;
  }
}

TEST(TraceIo, FormatMatchesTheGoldenCapture) {
  // `pftk simulate manic alps 30 42 FILE`, as written by the iostream
  // writer format_trace replaced. Regenerate only for an intended format
  // change.
  std::ifstream in(PFTK_TEST_DATA_DIR "/trace_manic_alps_30_42.golden.tsv",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture";
  const std::string golden{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};

  sim::Connection conn(
      exp::make_connection_config(exp::profile_by_label("manic", "alps"), 42));
  TraceRecorder rec;
  conn.set_observer(&rec);
  (void)conn.run_for(30.0);
  const std::string text = format_trace(rec.events());
  const auto [ours, theirs] =
      std::mismatch(text.begin(), text.end(), golden.begin(), golden.end());
  EXPECT_TRUE(ours == text.end() && theirs == golden.end())
      << "format_trace output first differs from the golden capture at byte "
      << (ours - text.begin());
}

/// The iostream writer format_trace replaced, kept only as this test's
/// oracle: one record, fixed with 9 decimals.
std::string ostream_record(const TraceEvent& e) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(9);
  switch (e.type) {
    case TraceEventType::kSegmentSent:
      os << "S\t" << e.t << '\t' << e.seq << '\t' << (e.retransmission ? 1 : 0) << '\t'
         << e.in_flight << '\t' << e.cwnd << '\n';
      break;
    case TraceEventType::kAckReceived:
      os << "A\t" << e.t << '\t' << e.seq << '\t' << (e.duplicate ? 1 : 0) << '\n';
      break;
    case TraceEventType::kTimeout:
      os << "T\t" << e.t << '\t' << e.seq << '\t' << e.consecutive << '\t' << e.value
         << '\n';
      break;
    case TraceEventType::kFastRetransmit:
      os << "F\t" << e.t << '\t' << e.seq << '\n';
      break;
    case TraceEventType::kRttSample:
      os << "R\t" << e.t << '\t' << e.value << '\t' << e.in_flight << '\n';
      break;
  }
  return os.str();
}

// Field values no simulated trace produces, so only this table covers
// them: exact ties at the 10th decimal (odd multiples of 2^-10 end in 5
// there), carries, signed zero, subnormals, huge and non-finite reals,
// and the integer types' extremes.
TEST(TraceIo, FormatMatchesOstreamFixedOnAdversarialFields) {
  using lim = std::numeric_limits<double>;
  std::vector<double> reals = {0.0,           -0.0,          lim::denorm_min(),
                               lim::min(),    5e-10,         1.5e-9,
                               0.1,           0.9999999995,  9.9999999994999,
                               1234.56789012, 1e15,          1e300,
                               lim::max(),    -lim::max(),   lim::infinity(),
                               -lim::infinity(), lim::quiet_NaN(), -lim::quiet_NaN()};
  for (int k = 1; k < 2048; k += 2) {
    reals.push_back(k / 1024.0);
    reals.push_back(3600.0 + k / 1024.0);
  }
  const std::uint64_t seqs[] = {0, 1, std::numeric_limits<std::uint64_t>::max()};
  const std::size_t flights[] = {0, std::numeric_limits<std::size_t>::max()};
  const int depths[] = {std::numeric_limits<int>::min(), -1, 0, 6,
                        std::numeric_limits<int>::max()};
  const TraceEventType types[] = {TraceEventType::kSegmentSent, TraceEventType::kAckReceived,
                                  TraceEventType::kTimeout, TraceEventType::kFastRetransmit,
                                  TraceEventType::kRttSample};

  std::vector<TraceEvent> events;
  const std::size_t n = reals.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (const TraceEventType type : types) {
      TraceEvent e;
      e.type = type;
      e.t = reals[i];
      e.value = reals[(i + 1) % n];
      e.cwnd = reals[(i + 2) % n];
      e.seq = seqs[i % 3];
      e.in_flight = flights[i % 2];
      e.consecutive = depths[i % 5];
      e.retransmission = i % 2 == 1;
      e.duplicate = i % 4 >= 2;
      events.push_back(e);
    }
  }

  std::istringstream text(format_trace(events));
  std::string line;
  ASSERT_TRUE(std::getline(text, line));
  EXPECT_EQ(line.front(), '#');
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(std::getline(text, line)) << "record " << i;
    EXPECT_EQ(line + '\n', ostream_record(events[i])) << "record " << i;
  }
  EXPECT_FALSE(std::getline(text, line)) << "extra output";
}

/// Formats each real as the time of an F record through format_trace, a
/// batch at a time, and compares every record with the one built by
/// std::to_chars(fixed, 9).
class Fixed9Oracle {
 public:
  void push(double v) {
    batch_.push_back(v);
    if (batch_.size() == kBatch) {
      flush();
    }
  }
  void flush() {
    if (batch_.empty()) {
      return;
    }
    std::vector<TraceEvent> events(batch_.size());
    std::string expected = format_trace({});
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      events[i].type = TraceEventType::kFastRetransmit;
      events[i].t = batch_[i];
      append_expected(expected, batch_[i]);
    }
    const std::string got = format_trace(events);
    if (got != expected) {
      std::istringstream lines(got);
      std::string line;
      std::getline(lines, line);  // header
      for (const double v : batch_) {
        std::getline(lines, line);
        std::string want;
        append_expected(want, v);
        want.pop_back();  // the newline getline drops
        if (line != want) {
          ADD_FAILURE() << "real " << std::hexfloat << v << ": wrote '" << line
                        << "', to_chars wrote '" << want << "'";
          break;
        }
      }
    }
    checked_ += batch_.size();
    batch_.clear();
  }
  [[nodiscard]] std::size_t checked() const noexcept { return checked_; }

 private:
  static constexpr std::size_t kBatch = std::size_t{1} << 16;

  static void append_expected(std::string& out, double v) {
    char buf[400];
    const auto r = std::to_chars(buf, std::end(buf), v, std::chars_format::fixed, 9);
    out += "F\t";
    out.append(buf, r.ptr);
    out += "\t0\n";
  }

  std::vector<double> batch_;
  std::size_t checked_ = 0;
};

// The writer prints reals below B = 2^53·10⁻⁹ s through an exact integer
// path and the rest through to_chars. Both must print the correctly
// rounded "%.9f" text (ties to even) for every double: this sweeps each
// class of value where the two could part.
TEST(TraceIo, RealsMatchToCharsFixed9OnTenMillionValues) {
  using lim = std::numeric_limits<double>;
  constexpr double kB = 9007199.254740992;
  constexpr double kHour = 3600.0;
  const auto b_bits = std::bit_cast<std::uint64_t>(kB);
  std::mt19937_64 rng(1998);
  Fixed9Oracle oracle;

  // Every exact half-nanosecond tie below an hour: the odd multiples of
  // 2^-10 (a tie (2j+1)/(2·10⁹) is dyadic only when 5^9 divides 2j+1).
  for (std::uint64_t k = 1; k < 3600u * 1024u; k += 2) {
    oracle.push(static_cast<double>(k) / 1024.0);
  }
  std::uniform_real_distribution<double> hour(0.0, kHour);
  for (int i = 0; i < 6'000'000; ++i) {
    oracle.push(hour(rng));
  }
  std::uniform_real_distribution<double> beyond(kHour, kB);
  for (int i = 0; i < 1'000'000; ++i) {
    oracle.push(beyond(rng));
  }
  // Bit patterns below B: every exponent the path handles, including the
  // subnormals and the tiny normals whose shift reaches 128.
  for (int i = 0; i < 1'000'000; ++i) {
    oracle.push(std::bit_cast<double>(rng() % b_bits));
  }
  // On, one ulp either side of, and midway between points of the 10⁻⁹
  // grid, within the hour and up to B.
  for (int i = 0; i < 120'000; ++i) {
    const std::uint64_t grid_points = i % 2 == 0 ? 3'600'000'000'000 : std::uint64_t{1} << 53;
    const std::uint64_t j = rng() % grid_points;
    const double on = static_cast<double>(j) / 1e9;
    oracle.push(on);
    oracle.push(std::nextafter(on, 0.0));
    oracle.push(std::nextafter(on, lim::infinity()));
    oracle.push((static_cast<double>(j) + 0.5) / 1e9);
  }
  // Decimals that round up into the integer part.
  for (int i = 0; i < 5'000; ++i) {
    const double k = i < 3600 ? i : static_cast<double>(rng() % 9'007'198);
    const double carry = k + 0.9999999995;
    oracle.push(carry);
    oracle.push(std::nextafter(carry, 0.0));
    oracle.push(std::nextafter(carry, lim::infinity()));
  }
  // The domain's edges: zeros, the largest double below B, and B and its
  // successor, which take the to_chars path.
  for (const double v : {0.0, -0.0, std::nextafter(kB, 0.0), kB,
                         std::nextafter(kB, lim::infinity())}) {
    oracle.push(v);
  }
  oracle.flush();
  EXPECT_GE(oracle.checked(), 10'000'000u);
}

TEST(TraceIo, AnalysisIsIdenticalOnReloadedTrace) {
  const std::vector<TraceEvent> original = simulated_trace();
  const std::vector<TraceEvent> reloaded = read_trace(format_trace(original));

  const LossAnalysis a = analyze_losses(original, 3);
  const LossAnalysis b = analyze_losses(reloaded, 3);
  EXPECT_EQ(a.total_indications(), b.total_indications());
  EXPECT_EQ(a.td_count, b.td_count);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
}

TEST(TraceIo, CommentsAndBlankLinesAreSkipped) {
  const auto events = read_trace("# header\n\nS\t0.5\t0\t0\t1\t1.0\n# trailing comment\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, TraceEventType::kSegmentSent);
  EXPECT_NEAR(events[0].t, 0.5, 1e-12);
}

TEST(TraceIo, MalformedLinesAreRejectedWithLineNumbers) {
  EXPECT_THROW((void)read_trace("S\t0.5\t0\n"), std::invalid_argument);  // truncated S
  {
    try {
      (void)read_trace("X\t0.5\t0\t0\n");  // unknown tag
      FAIL() << "expected an exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
    }
  }
}

TEST(TraceIo, FileWrappersRejectBadPaths) {
  EXPECT_THROW((void)load_trace_file("/nonexistent/dir/trace.txt"),
               std::invalid_argument);
  EXPECT_THROW(save_trace_file("/nonexistent/dir/trace.txt", {}), pftk::robust::IoError);
  EXPECT_THROW((void)load_trace_file_lenient("/nonexistent/dir/trace.txt"),
               std::invalid_argument);
  // A directory opens but cannot be read (EISDIR): an error, never an
  // empty trace.
  EXPECT_THROW((void)load_trace_file(testing::TempDir()), std::invalid_argument);
  EXPECT_THROW((void)load_trace_file_lenient(testing::TempDir()), std::invalid_argument);
}

// Fuzz-style table of corrupt single lines: strict must throw, lenient
// must skip exactly that line and say why.
TEST(TraceIo, MalformedLineTable) {
  const struct {
    const char* name;
    std::string line;
  } cases[] = {
      {"truncated S record", "S\t0.5\t0"},
      {"truncated A record", "A\t0.5\t1"},
      {"unknown tag", "X\t0.5\t0\t0"},
      {"binary garbage", "\x01\x02\xff\xfe"},
      {"negative timestamp", "S\t-1.0\t0\t0\t1\t1.0"},
      {"huge timestamp", "S\t1e15\t0\t0\t1\t1.0"},
      {"negative seq wraps to huge", "A\t0.5\t-3\t0"},
      {"timeout depth out of range", "T\t0.5\t0\t99\t1.0"},
      {"cwnd out of range", "S\t0.5\t0\t0\t1\t1e300"},
      {"non-numeric field", "S\t0.5\tzero\t0\t1\t1.0"},
      {"embedded NUL", std::string("S\t0.5\t0\t0\t1\t1.0").insert(3, 1, '\0')},
  };
  const std::string good = "S\t0.1\t0\t0\t1\t1.000000000\n";
  for (const auto& c : cases) {
    const std::string content = good + c.line + "\n" + good;
    EXPECT_THROW((void)read_trace(content), std::invalid_argument) << c.name;
    TraceReadReport report;
    const auto events = read_trace_lenient(content, &report);
    EXPECT_EQ(events.size(), 2u) << c.name;
    EXPECT_EQ(report.lines_total, 3u) << c.name;
    EXPECT_EQ(report.events_parsed, 2u) << c.name;
    EXPECT_EQ(report.lines_dropped, 1u) << c.name;
    EXPECT_EQ(report.bytes_dropped, c.line.size() + 1) << c.name;
    EXPECT_EQ(report.first_error_line, 2u) << c.name;
    EXPECT_FALSE(report.first_error.empty()) << c.name;
    EXPECT_FALSE(report.clean()) << c.name;
    EXPECT_FALSE(report.truncated) << c.name;
  }
}

TEST(TraceIo, LenientRecoversTheValidPrefixExactly) {
  const std::vector<TraceEvent> original = simulated_trace();
  // Simulate disk-full corruption: garbage, then a record cut mid-field
  // with no trailing newline.
  const std::string content =
      format_trace(original) + "%%% corrupted tail %%%\nS\t99.0\t12";

  TraceReadReport report;
  const auto events = read_trace_lenient(content, &report);
  ASSERT_EQ(events.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(events[i].seq, original[i].seq) << "event " << i;
  }
  EXPECT_EQ(report.events_parsed, original.size());
  EXPECT_EQ(report.lines_dropped, 2u);
  // The torn final line has no newline on disk, so exactly its own
  // bytes are charged — no phantom terminator.
  EXPECT_EQ(report.bytes_dropped, std::string("%%% corrupted tail %%%\n").size() +
                                      std::string("S\t99.0\t12").size());
  EXPECT_TRUE(report.truncated);
}

TEST(TraceIo, TruncationRequiresAnUnterminatedBadFinalLine) {
  {
    // Unterminated but parseable final line: the event is salvaged and
    // `truncated` stays false, but a mid-record cut whose surviving
    // prefix is field-complete looks identical — so the report flags
    // the last event as suspect and the read is not clean.
    TraceReadReport report;
    const auto events = read_trace_lenient("S\t0.5\t0\t0\t1\t1.0\nA\t0.6\t1\t0", &report);
    EXPECT_EQ(events.size(), 2u);
    EXPECT_FALSE(report.truncated);
    EXPECT_TRUE(report.suspect_final_event);
    EXPECT_FALSE(report.clean());
  }
  {
    // Terminated bad line mid-file: corruption, but not truncation.
    TraceReadReport report;
    (void)read_trace_lenient("junk\nS\t0.5\t0\t0\t1\t1.0\n", &report);
    EXPECT_FALSE(report.truncated);
    EXPECT_EQ(report.lines_dropped, 1u);
  }
}

TEST(TraceIo, CrlfLineEndingsAreTolerated) {
  TraceReadReport report;
  const auto events =
      read_trace_lenient("# dos capture\r\nS\t0.5\t0\t0\t1\t1.0\r\n", &report);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].t, 0.5, 1e-12);
  EXPECT_TRUE(report.clean());
}

TEST(TraceIo, LenientReportDescribesItself) {
  TraceReadReport report;
  (void)read_trace_lenient("S\t0.5\t0\t0\t1\t1.0\njunk\n", &report);
  const std::string text = report.describe();
  EXPECT_NE(text.find("dropped 1"), std::string::npos) << text;
  EXPECT_NE(text.find("line 2"), std::string::npos) << text;
}

TEST(TraceIo, LenientMatchesStrictOnCleanInput) {
  const std::string content = format_trace(simulated_trace());

  TraceReadReport report;
  const auto strict_events = read_trace(content);
  const auto lenient_events = read_trace_lenient(content, &report);
  ASSERT_EQ(lenient_events.size(), strict_events.size());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.events_parsed, strict_events.size());
}

TEST(TraceValidator, CleanSimulatedTraceValidates) {
  const TraceValidation report = validate_trace(simulated_trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().message);
}

TEST(TraceValidator, CatchesRegressingTimestamps) {
  std::vector<TraceEvent> ev(2);
  ev[0].type = TraceEventType::kSegmentSent;
  ev[0].t = 1.0;
  ev[1].type = TraceEventType::kSegmentSent;
  ev[1].t = 0.5;
  ev[1].seq = 1;
  const TraceValidation report = validate_trace(ev);
  EXPECT_FALSE(report.ok());
}

TEST(TraceValidator, CatchesRetransmissionOfUnsentData) {
  std::vector<TraceEvent> ev(1);
  ev[0].type = TraceEventType::kSegmentSent;
  ev[0].seq = 5;
  ev[0].retransmission = true;
  EXPECT_FALSE(validate_trace(ev).ok());
}

TEST(TraceValidator, CatchesOutOfOrderFirstTransmissions) {
  std::vector<TraceEvent> ev(1);
  ev[0].type = TraceEventType::kSegmentSent;
  ev[0].seq = 3;  // first send must be seq 0
  EXPECT_FALSE(validate_trace(ev).ok());
}

TEST(TraceValidator, CatchesAckOfUnsentData) {
  std::vector<TraceEvent> ev(2);
  ev[0].type = TraceEventType::kSegmentSent;
  ev[0].seq = 0;
  ev[1].type = TraceEventType::kAckReceived;
  ev[1].t = 0.1;
  ev[1].seq = 10;
  EXPECT_FALSE(validate_trace(ev).ok());
}

TEST(TraceValidator, CatchesBadTimeoutAndRttRecords) {
  std::vector<TraceEvent> ev(2);
  ev[0].type = TraceEventType::kTimeout;
  ev[0].consecutive = 0;
  ev[0].value = -1.0;
  ev[1].type = TraceEventType::kRttSample;
  ev[1].value = 0.0;
  const TraceValidation report = validate_trace(ev);
  EXPECT_GE(report.violations.size(), 3u);
}

TEST(TraceValidator, EmptyTraceIsValid) {
  EXPECT_TRUE(validate_trace({}).ok());
}

}  // namespace
}  // namespace pftk::trace
