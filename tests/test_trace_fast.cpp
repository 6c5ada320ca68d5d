// Corruption-matrix tests for the trace reader (trace_reader_fast.*)
// against an istream oracle kept in this file, plus regression tests for
// three silent-parse bugs fixed in the reader:
//   1. trailing garbage / merged records were accepted as valid events;
//   2. bytes_dropped miscounted CRLF (-1) and torn tails (+1);
//   3. an unterminated-but-parseable final line went unflagged.
// Every matrix case asserts identical events (bit-exact doubles), an
// identical TraceReadReport and the same strict-mode message.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "robust/durable_file.hpp"
#include "robust/failpoint.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_reader_fast.hpp"
#include "trace/trace_scan.hpp"

namespace pftk::trace {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the istream reader the buffer parser replaced, kept only
// here. It reads with getline and `istream >>`, so it is the reference
// for the token grammar, the diagnostics and the report accounting, and
// it evaluates the `trace.read.line` failpoint the way the reader must.

/// The classic-locale whitespace set — what `istream >>` skips.
bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool oracle_parse_line(const std::string& line, TraceEvent& event, std::string& error) {
  if (line.find('\0') != std::string::npos) {
    error = "embedded NUL byte";
    return false;
  }
  std::istringstream ls(line);
  char tag = 0;
  ls >> tag;
  TraceEvent e;
  int flag = 0;
  switch (tag) {
    case 'S':
      e.type = TraceEventType::kSegmentSent;
      if (!(ls >> e.t >> e.seq >> flag >> e.in_flight >> e.cwnd)) {
        error = "malformed S record";
        return false;
      }
      e.retransmission = flag != 0;
      break;
    case 'A':
      e.type = TraceEventType::kAckReceived;
      if (!(ls >> e.t >> e.seq >> flag)) {
        error = "malformed A record";
        return false;
      }
      e.duplicate = flag != 0;
      break;
    case 'T':
      e.type = TraceEventType::kTimeout;
      if (!(ls >> e.t >> e.seq >> e.consecutive >> e.value)) {
        error = "malformed T record";
        return false;
      }
      break;
    case 'F':
      e.type = TraceEventType::kFastRetransmit;
      if (!(ls >> e.t >> e.seq)) {
        error = "malformed F record";
        return false;
      }
      break;
    case 'R':
      e.type = TraceEventType::kRttSample;
      if (!(ls >> e.t >> e.value >> e.in_flight)) {
        error = "malformed R record";
        return false;
      }
      break;
    default:
      error = std::string("unknown record tag '") + tag + "'";
      return false;
  }
  char tail = 0;
  while (ls.get(tail)) {
    if (!is_ws(tail)) {
      error = "trailing garbage";
      return false;
    }
  }
  if (!detail::validate_event(e, error)) {
    return false;
  }
  event = e;
  return true;
}

/// Strict mode throws "read_trace: line N: ..." on the first bad line;
/// lenient mode fills `rep` instead.
std::vector<TraceEvent> oracle_read(const std::string& content, bool strict,
                                    TraceReadReport& rep) {
  std::istringstream is(content);
  std::vector<TraceEvent> out;
  rep = TraceReadReport{};
  std::string line;
  bool final_line_unterminated = false;
  bool final_line_bad = false;
  bool final_line_event = false;
  bool injected_eof = false;
  while (!injected_eof && std::getline(is, line)) {
    ++rep.lines_total;
    // A successful getline that also hit EOF read a line with no trailing
    // newline — on the last line that is the truncation signature.
    final_line_unterminated = is.eof();
    final_line_bad = false;
    final_line_event = false;
    const robust::FailpointHit hit = robust::failpoint("trace.read.line");
    if (hit.action == robust::FailpointAction::kShortWrite) {
      line.resize(std::min<std::size_t>(hit.arg, line.size()));
      final_line_unterminated = true;
      injected_eof = true;
    } else {
      robust::apply_failpoint(hit, "trace.read.line");
    }
    const std::size_t disk_bytes = line.size() + (final_line_unterminated ? 0 : 1);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') {
      ++rep.comment_lines;
      continue;
    }
    TraceEvent event;
    std::string error;
    if (oracle_parse_line(line, event, error)) {
      out.push_back(event);
      ++rep.events_parsed;
      final_line_event = true;
      continue;
    }
    final_line_bad = true;
    ++rep.lines_dropped;
    rep.bytes_dropped += disk_bytes;
    if (rep.first_error_line == 0) {
      rep.first_error_line = rep.lines_total;
      rep.first_error = error;
    }
    if (strict) {
      throw std::invalid_argument("read_trace: line " + std::to_string(rep.lines_total) +
                                  ": " + error);
    }
  }
  rep.truncated = final_line_unterminated && final_line_bad;
  rep.suspect_final_event = final_line_unterminated && final_line_event;
  return out;
}

// ---------------------------------------------------------------------------

constexpr const char* kGood1 = "S\t0.100000000\t1\t0\t1\t2.000000000\n";
constexpr const char* kGood2 = "A\t0.200000000\t1\t0\n";
constexpr const char* kGood3 = "T\t0.300000000\t2\t1\t1.500000000\n";
constexpr const char* kGood4 = "F\t0.400000000\t3\n";
constexpr const char* kGood5 = "R\t0.500000000\t0.210000000\t8\n";

std::string good_block() {
  return std::string("# header\n") + kGood1 + kGood2 + kGood3 + kGood4 + kGood5;
}

struct Parsed {
  std::vector<TraceEvent> events;
  TraceReadReport report;
};

Parsed oracle_lenient(const std::string& content) {
  Parsed p;
  p.events = oracle_read(content, /*strict=*/false, p.report);
  return p;
}

Parsed lenient(const std::string& content) {
  Parsed p;
  p.events = read_trace_lenient(content, &p.report);
  return p;
}

/// The std::invalid_argument message `parse` throws, or "" if none.
template <typename F>
std::string strict_error(F&& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_events_identical(const std::vector<TraceEvent>& a,
                             const std::vector<TraceEvent>& b,
                             const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << label << " event " << i;
    EXPECT_EQ(bits(a[i].t), bits(b[i].t)) << label << " event " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << label << " event " << i;
    EXPECT_EQ(a[i].retransmission, b[i].retransmission) << label << " event " << i;
    EXPECT_EQ(a[i].duplicate, b[i].duplicate) << label << " event " << i;
    EXPECT_EQ(a[i].consecutive, b[i].consecutive) << label << " event " << i;
    EXPECT_EQ(bits(a[i].value), bits(b[i].value)) << label << " event " << i;
    EXPECT_EQ(a[i].in_flight, b[i].in_flight) << label << " event " << i;
    EXPECT_EQ(bits(a[i].cwnd), bits(b[i].cwnd)) << label << " event " << i;
  }
}

void expect_reports_identical(const TraceReadReport& a, const TraceReadReport& b,
                              const std::string& label) {
  EXPECT_EQ(a.lines_total, b.lines_total) << label;
  EXPECT_EQ(a.events_parsed, b.events_parsed) << label;
  EXPECT_EQ(a.comment_lines, b.comment_lines) << label;
  EXPECT_EQ(a.lines_dropped, b.lines_dropped) << label;
  EXPECT_EQ(a.bytes_dropped, b.bytes_dropped) << label;
  EXPECT_EQ(a.first_error_line, b.first_error_line) << label;
  EXPECT_EQ(a.first_error, b.first_error) << label;
  EXPECT_EQ(a.truncated, b.truncated) << label;
  EXPECT_EQ(a.suspect_final_event, b.suspect_final_event) << label;
}

/// The reader against the oracle, lenient and strict, over one input:
/// events and every report field must match, and strict mode must throw
/// the same message.
void expect_full_parity(const std::string& content, const std::string& label) {
  const Parsed ref = oracle_lenient(content);
  const Parsed got = lenient(content);
  expect_events_identical(ref.events, got.events, label);
  expect_reports_identical(ref.report, got.report, label);

  TraceReadReport unused;
  const std::string ref_error =
      strict_error([&] { (void)oracle_read(content, /*strict=*/true, unused); });
  EXPECT_EQ(ref_error, strict_error([&] { (void)read_trace(content); })) << label;
}

// ---------------------------------------------------------------------------
// The corruption matrix.

TEST(TraceFastParity, CorruptionMatrix) {
  const std::string g = good_block();
  std::string nul_record = "S\t0.5\t0\t0\t1\t1.0";
  nul_record.insert(3, 1, '\0');
  const struct {
    const char* name;
    std::string content;
  } cases[] = {
      {"clean", g},
      {"empty input", ""},
      {"only comments", "# a\n# b\n"},
      {"unterminated comment", "# a\n# tail with no newline"},
      {"blank lines", "\n\n" + g + "\n\n"},
      {"trailing garbage", g + "F\t1.0\t5\tgarbage\n" + g},
      {"merged records", g + "S\t0.6\t4\t0\t1\t2.0\tS\t0.7\t5\t0\t1\t2.0\n"},
      {"merged F records", g + "F\t1.0\t5\tF\t1.1\t6\n"},
      {"extra numeric field", g + "A\t0.8\t2\t0\t7\n"},
      {"crlf clean", "# dos\r\nS\t0.5\t0\t0\t1\t1.0\r\n"},
      {"crlf dropped line", "junk\r\n" + g},
      {"crlf torn tail", g + "S\t0.9\t9\r"},
      {"embedded NUL", g + nul_record + "\n" + g},
      {"NUL inside comment", std::string("# co\0mment\n", 11) + g},
      {"whitespace-only line", g + " \t \n" + g},
      {"leading spaces valid", "  S\t0.5\t0\t0\t1\t1.0\n"},
      {"space then hash", " # not a comment\n" + g},
      {"unterminated parseable final", g + "A\t0.6\t1\t0"},
      {"unterminated bad final", g + "S\t99.0\t12"},
      {"negative seq wraps", g + "A\t0.5\t-3\t0\n"},
      {"u64 overflow", g + "A\t0.5\t9999999999999999999999999\t0\n"},
      {"int overflow flag", g + "A\t0.5\t1\t99999999999\n"},
      {"plus-signed time", "S\t+0.5\t0\t0\t1\t1.0\n"},
      {"inf duration", g + "R\t0.5\tinf\t3\n"},
      {"nan time", g + "S\tnan\t0\t0\t1\t1.0\n"},
      {"double overflow", g + "S\t1e999\t0\t0\t1\t1.0\n"},
      {"incomplete exponent", g + "S\t5e\t0\t0\t1\t1.0\n"},
      {"valid exponent", "R\t1.5e-2\t0.21\t8\n"},
      {"hex float", "S\t0x10\t0\t0\t1\t1.0\n"},
      {"hex float with p exponent", "S\t0x1.8p1\t0\t0\t1\t1.0\n"},
      {"bare 0x", "S\t0x\t0\t0\t1\t1.0\n"},
      {"trailing dot", "S\t5.\t0\t0\t1\t1.0\n"},
      {"leading dot", "S\t.5\t0\t0\t1\t1.0\n"},
      {"double dot", "S\t5.5.5\t0\t0\t1\t1.0\n"},
      {"timeout depth range", g + "T\t0.5\t0\t99\t1.0\n"},
      {"cwnd range", g + "S\t0.5\t0\t0\t1\t1e300\n"},
      {"huge time in range", "S\t999999999999.0\t0\t0\t1\t1.0\n"},
      {"time just out of range", "S\t1000000000001.0\t0\t0\t1\t1.0\n"},
      {"long mantissa", "S\t0.12345678901234567890123\t0\t0\t1\t1.0\n"},
      {"double tab separators", "S\t\t0.5\t0\t0\t1\t1.0\n"},
      {"huge garbage line", std::string(10000, 'x') + "\n" + g},
      {"binary garbage", std::string("\x01\x02\xff\xfe\n") + g},
  };
  for (const auto& c : cases) {
    expect_full_parity(c.content, c.name);
  }
}

TEST(TraceFastParity, TornTailAtEveryByteOffset) {
  const std::string prefix = good_block();
  const std::string last = "S\t12.345678901\t17\t1\t9\t23.000000000";
  for (std::size_t cut = 0; cut <= last.size(); ++cut) {
    const std::string content = prefix + last.substr(0, cut);
    expect_full_parity(content, "torn tail cut=" + std::to_string(cut));
  }
}

// ---------------------------------------------------------------------------
// Regression tests for the three fixed bugs. Each fails on the pre-fix
// parser (which accepted garbage tails, miscounted CRLF/torn bytes, and
// never flagged a parseable torn tail).

TEST(TraceParseBugfix, TrailingGarbageIsRejected) {
  {
    const std::string text = "F\t1.0\t5\tgarbage\n";
    TraceReadReport rep;
    const auto events = read_trace_lenient(text, &rep);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(rep.lines_dropped, 1u);
    EXPECT_EQ(rep.first_error, "trailing garbage");
  }
  {
    // Two records merged onto one line must not parse as the first one.
    const std::string text = "F\t1.0\t5\tF\t1.1\t6\n";
    TraceReadReport rep;
    const auto events = read_trace_lenient(text, &rep);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(rep.first_error, "trailing garbage");
  }
  {
    // Trailing whitespace is still fine.
    const std::string text = "F\t1.0\t5 \t\n";
    TraceReadReport rep;
    const auto events = read_trace_lenient(text, &rep);
    EXPECT_EQ(events.size(), 1u);
    EXPECT_TRUE(rep.clean());
  }
  {
    const std::string text = "F\t1.0\t5\tgarbage\n";
    EXPECT_THROW((void)read_trace(text), std::invalid_argument);
  }
}

TEST(TraceParseBugfix, BytesDroppedCountsActualDiskBytes) {
  {
    // CRLF dropped line: "junk\r\n" is 6 bytes on disk, not 5.
    const std::string text = "junk\r\nS\t0.5\t0\t0\t1\t1.0\n";
    TraceReadReport rep;
    (void)read_trace_lenient(text, &rep);
    EXPECT_EQ(rep.lines_dropped, 1u);
    EXPECT_EQ(rep.bytes_dropped, std::string("junk\r\n").size());
  }
  {
    // Torn bad tail: "S\t9" is 3 bytes on disk — there is no newline.
    const std::string text = "S\t0.5\t0\t0\t1\t1.0\nS\t9";
    TraceReadReport rep;
    (void)read_trace_lenient(text, &rep);
    EXPECT_EQ(rep.lines_dropped, 1u);
    EXPECT_EQ(rep.bytes_dropped, std::string("S\t9").size());
    EXPECT_TRUE(rep.truncated);
  }
}

TEST(TraceParseBugfix, UnterminatedParseableFinalLineIsSuspect) {
  const std::string text = "S\t0.5\t0\t0\t1\t1.0\nA\t0.6\t1\t0";
  TraceReadReport rep;
  const auto events = read_trace_lenient(text, &rep);
  ASSERT_EQ(events.size(), 2u);  // still salvaged...
  EXPECT_FALSE(rep.truncated);
  EXPECT_TRUE(rep.suspect_final_event);  // ...but surfaced
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(rep.describe().find("no newline"), std::string::npos) << rep.describe();
}

// ---------------------------------------------------------------------------
// File loads: mapped files, pipes, devices, armed failpoints.

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + name;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
  return path;
}

/// A pipe that a writer thread fills with `content` and then closes.
/// path() names its read end as /proc/self/fd/N, which opens like a
/// shell pipe or /dev/stdin: a stream that cannot be mapped.
class PipeSource {
 public:
  explicit PipeSource(std::string content) : content_(std::move(content)) {
    if (::pipe2(fds_, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    writer_ = std::thread([this] {
      std::size_t off = 0;
      while (off < content_.size()) {
        const ssize_t n = ::write(fds_[1], content_.data() + off, content_.size() - off);
        if (n <= 0) {
          break;
        }
        off += static_cast<std::size_t>(n);
      }
      ::close(fds_[1]);
    });
  }
  ~PipeSource() {
    // Drain what the load left unread (nothing, when it read to EOF) so
    // the writer can never block on a full pipe.
    char sink[4096];
    while (::read(fds_[0], sink, sizeof sink) > 0) {
    }
    writer_.join();
    ::close(fds_[0]);
  }
  PipeSource(const PipeSource&) = delete;
  PipeSource& operator=(const PipeSource&) = delete;

  [[nodiscard]] std::string path() const {
    return "/proc/self/fd/" + std::to_string(fds_[0]);
  }

 private:
  std::string content_;
  int fds_[2] = {-1, -1};
  std::thread writer_;
};

TEST(TraceFastFile, MmapLoadMatchesReferenceReader) {
  std::string content;
  for (int i = 0; i < 50; ++i) {
    content += good_block();
  }
  content += "%%% corrupted tail %%%\nS\t99.0\t12";
  const std::string path = write_temp("pftk_fast_mmap.tsv", content);

  Parsed loaded;
  loaded.events = load_trace_file_lenient(path, &loaded.report);
  const Parsed ref = oracle_lenient(content);
  expect_events_identical(ref.events, loaded.events, "mapped load");
  expect_reports_identical(ref.report, loaded.report, "mapped load");
  EXPECT_TRUE(loaded.report.truncated);
  std::remove(path.c_str());
}

TEST(TraceFastFile, StrictLoadThrowsIdenticalMessage) {
  const std::string content = good_block() + "X\t1\t2\t3\n";
  const std::string path = write_temp("pftk_fast_strict.tsv", content);
  const std::string loaded_error = strict_error([&] { (void)load_trace_file(path); });
  TraceReadReport unused;
  EXPECT_EQ(strict_error([&] { (void)oracle_read(content, /*strict=*/true, unused); }),
            loaded_error);
  EXPECT_NE(loaded_error.find("line 7"), std::string::npos) << loaded_error;
  std::remove(path.c_str());
}

TEST(TraceFastFile, PipeLoadMatchesRegularFileLoad) {
  // Larger than a pipe's 64 KiB buffer, so the load reads while the
  // writer is still writing.
  std::string content;
  for (int i = 0; i < 2000; ++i) {
    content += good_block();
  }
  content += "%%% corrupted line %%%\n" + good_block() + "S\t99.0\t12";
  const std::string path = write_temp("pftk_fast_pipe.tsv", content);

  Parsed file;
  file.events = load_trace_file_lenient(path, &file.report);
  Parsed piped;
  {
    PipeSource pipe(content);
    piped.events = load_trace_file_lenient(pipe.path(), &piped.report);
  }
  expect_events_identical(file.events, piped.events, "pipe vs file");
  expect_reports_identical(file.report, piped.report, "pipe vs file");
  EXPECT_EQ(piped.report.lines_dropped, 2u);
  EXPECT_TRUE(piped.report.truncated);

  const std::string file_error = strict_error([&] { (void)load_trace_file(path); });
  std::string pipe_error;
  {
    PipeSource pipe(content);
    pipe_error = strict_error([&] { (void)load_trace_file(pipe.path()); });
  }
  EXPECT_EQ(file_error, pipe_error);
  EXPECT_NE(file_error.find("line 12001"), std::string::npos) << file_error;
  std::remove(path.c_str());
}

TEST(TraceFastFile, EmptyFileAndDeviceLoadEmpty) {
  const std::string path = write_temp("pftk_fast_empty.tsv", "");
  TraceReadReport rep;
  EXPECT_TRUE(load_trace_file_lenient(path, &rep).empty());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.lines_total, 0u);
  std::remove(path.c_str());

  // /dev/null is a character device: not mappable, read to EOF.
  TraceReadReport dev_rep;
  EXPECT_TRUE(load_trace_file_lenient("/dev/null", &dev_rep).empty());
  EXPECT_TRUE(dev_rep.clean());
}

TEST(TraceFastFile, ArmedFailpointFiresAtTheOracleLine) {
  const std::string content = good_block() + good_block();
  const std::string path = write_temp("pftk_fast_failpoint.tsv", content);
  auto& registry = robust::FailpointRegistry::instance();
  const auto arm = [&registry](const char* spec) {
    registry.disarm_all();
    registry.arm_specs(spec);
  };
  constexpr const char* kTornLine4 = "trace.read.line:after=3:action=short_write:arg=2";

  arm(kTornLine4);
  const Parsed ref = oracle_lenient(content);
  EXPECT_EQ(registry.fired_count("trace.read.line"), 1u);
  // The injected short_write clips line 4 ("# header" + 3 records, so a
  // record line) to 2 bytes: a torn, unparseable tail.
  EXPECT_TRUE(ref.report.truncated);

  // A mapped file and a pipe: each load fires the spec once, at the
  // same line, and salvages exactly what the oracle did.
  arm(kTornLine4);
  Parsed mapped;
  mapped.events = load_trace_file_lenient(path, &mapped.report);
  EXPECT_EQ(registry.fired_count("trace.read.line"), 1u);
  expect_events_identical(ref.events, mapped.events, "failpoint, mapped");
  expect_reports_identical(ref.report, mapped.report, "failpoint, mapped");

  arm(kTornLine4);
  Parsed piped;
  {
    PipeSource pipe(content);
    piped.events = load_trace_file_lenient(pipe.path(), &piped.report);
  }
  EXPECT_EQ(registry.fired_count("trace.read.line"), 1u);
  expect_events_identical(ref.events, piped.events, "failpoint, pipe");
  expect_reports_identical(ref.report, piped.report, "failpoint, pipe");

  // error/enospc surface as robust::IoError, not as a short trace.
  arm("trace.read.line:after=2:action=error");
  EXPECT_THROW((void)load_trace_file_lenient(path), robust::IoError);
  registry.disarm_all();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Scanner primitives.

TEST(TraceScan, FindNewlineMatchesMemchrEverywhere) {
  // Deterministic pseudo-random buffer with '\n' sprinkled at awkward
  // offsets (SWAR word edges, AVX lane edges, head/tail remainders).
  std::string buf(517, 'a');
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (char& c : buf) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>('a' + (state >> 60));
  }
  for (std::size_t pos : {std::size_t{7}, std::size_t{8}, std::size_t{31},
                          std::size_t{32}, std::size_t{63}, std::size_t{64},
                          std::size_t{255}, std::size_t{516}}) {
    buf[pos] = '\n';
  }
  for (std::size_t start = 0; start <= buf.size(); ++start) {
    const void* hit = start < buf.size()
                          ? std::memchr(buf.data() + start, '\n', buf.size() - start)
                          : nullptr;
    const std::size_t expected =
        hit == nullptr
            ? std::string_view::npos
            : static_cast<std::size_t>(static_cast<const char*>(hit) - buf.data());
    EXPECT_EQ(find_newline(buf, start), expected) << "start=" << start;
  }
}

// ---------------------------------------------------------------------------
// The 4 GiB-boundary case: offsets past 2^32 must not wrap anywhere in
// the scanner or the line bookkeeping. Far too big for tier-1, so it
// only runs when explicitly requested.

TEST(TraceFastHuge, FourGiBBoundarySyntheticTrace) {
  if (std::getenv("PFTK_HUGE_TESTS") == nullptr) {
    GTEST_SKIP() << "set PFTK_HUGE_TESTS=1 to run the 4 GiB ingest test";
  }
  const std::string path = testing::TempDir() + "pftk_fast_4gib.tsv";
  const std::string block = good_block();
  constexpr std::uint64_t kTarget = (1ULL << 32) + (1ULL << 20);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    std::uint64_t written = 0;
    while (written < kTarget) {
      os << block;
      written += block.size();
    }
    os << "S\t99.0\t12";  // torn tail right past the 4 GiB boundary
  }
  const std::uint64_t blocks = (kTarget + block.size() - 1) / block.size();
  TraceReadReport rep;
  const auto events = load_trace_file_lenient(path, &rep);
  EXPECT_EQ(events.size(), blocks * 5);
  EXPECT_EQ(rep.lines_total, blocks * 6 + 1);
  EXPECT_EQ(rep.lines_dropped, 1u);
  EXPECT_TRUE(rep.truncated);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pftk::trace
