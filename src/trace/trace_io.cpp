#include "trace/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/flight/flight_recorder.hpp"
#include "robust/durable_file.hpp"
#include "robust/failpoint.hpp"
#include "trace/trace_reader_fast.hpp"

namespace pftk::trace {

namespace {

/// The classic-locale whitespace set — what `istream >>` skips.
bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Parses one non-comment line into `event`; returns false with a
/// diagnostic in `error` if the line is malformed, not fully consumed,
/// or out of range. This is the reference parser; detail::parse_line_fast
/// mirrors it token for token (parity is tested).
bool parse_line(const std::string& line, TraceEvent& event, std::string& error) {
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
  // The stream must be exhausted (whitespace-only tail allowed): a
  // field-complete prefix followed by more text is trailing garbage or
  // two records merged onto one line — corruption either way.
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

enum class ReadMode { kStrict, kLenient };

std::vector<TraceEvent> read_trace_impl(std::istream& is, ReadMode mode,
                                        TraceReadReport* report) {
  std::vector<TraceEvent> out;
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;
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
    // Failpoint: simulate a read fault on this line. short_write clips
    // the line to `arg` bytes and ends the file there (a torn tail);
    // error/enospc throw robust::IoError; crash kills the process.
    const robust::FailpointHit hit = robust::failpoint("trace.read.line");
    if (hit.action == robust::FailpointAction::kShortWrite) {
      line.resize(std::min<std::size_t>(hit.arg, line.size()));
      final_line_unterminated = true;
      injected_eof = true;
    } else {
      robust::apply_failpoint(hit, "trace.read.line");
    }
    // On-disk bytes of this line: content incl. any '\r', plus the '\n'
    // getline consumed unless the line was unterminated (EOF or an
    // injected torn tail).
    const std::size_t disk_bytes = line.size() + (final_line_unterminated ? 0 : 1);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();  // tolerate CRLF captures
    }
    if (line.empty() || line[0] == '#') {
      ++rep.comment_lines;
      continue;
    }
    TraceEvent event;
    std::string error;
    if (parse_line(line, event, error)) {
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
    if (mode == ReadMode::kStrict) {
      throw std::invalid_argument("read_trace: line " + std::to_string(rep.lines_total) +
                                  ": " + error);
    }
  }
  rep.truncated = final_line_unterminated && final_line_bad;
  rep.suspect_final_event = final_line_unterminated && final_line_event;
  return out;
}

/// Longest fixed/9 rendering of a double: sign, DBL_MAX's 309 integer
/// digits, the point and 9 decimals.
constexpr std::size_t kMaxRealChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 9;
/// Longest integer field: UINT64_MAX's 20 digits (INT_MIN needs 11).
constexpr std::size_t kMaxIntChars = std::numeric_limits<std::uint64_t>::digits10 + 1;

/// One record assembled in a stack buffer sized for the worst record (S
/// and T: two reals, three integer or flag fields, the tag, five
/// separators and the newline), so no field value can be clipped.
class RecordBuffer {
 public:
  explicit RecordBuffer(char tag) noexcept { *p_++ = tag; }

  RecordBuffer& real(double v) {
    *p_++ = '\t';
    return advance(std::to_chars(p_, std::end(buf_), v, std::chars_format::fixed, 9));
  }
  template <typename Int>
  RecordBuffer& integer(Int v) {
    *p_++ = '\t';
    return advance(std::to_chars(p_, std::end(buf_), v));
  }
  RecordBuffer& flag(bool on) noexcept {
    *p_++ = '\t';
    *p_++ = on ? '1' : '0';
    return *this;
  }
  void end_line(std::string& out) {
    *p_++ = '\n';
    out.append(buf_, p_);
  }

 private:
  RecordBuffer& advance(std::to_chars_result r) {
    if (r.ec != std::errc{}) {
      throw std::logic_error("format_trace: field overflowed its record buffer");
    }
    p_ = r.ptr;
    return *this;
  }

  // Left uninitialized on purpose: only the written prefix [buf_, p_) is
  // ever read, and zeroing it would add a ~700-byte memset per record.
  char buf_[2 * kMaxRealChars + 3 * kMaxIntChars + 7];
  char* p_ = buf_;
};

}  // namespace

std::string TraceReadReport::describe() const {
  std::ostringstream os;
  os << events_parsed << " events from " << lines_total << " lines";
  if (lines_dropped > 0) {
    os << "; dropped " << lines_dropped << " lines (" << bytes_dropped
       << " bytes), first error at line " << first_error_line << ": " << first_error;
  }
  if (truncated) {
    os << "; file appears truncated mid-record";
  }
  if (suspect_final_event) {
    os << "; final line has no newline — last event may be a torn prefix";
  }
  if (clean()) {
    os << "; clean";
  }
  return os.str();
}

std::string format_trace(std::span<const TraceEvent> events) {
  constexpr std::string_view kHeader =
      "# pftk trace v1: S/A/T/F/R events, tab-separated, times in seconds\n";
  std::string out;
  // Simulated records average ~31 bytes; 48 covers them without regrowth.
  out.reserve(kHeader.size() + 48 * events.size());
  out += kHeader;
  for (const TraceEvent& e : events) {
    switch (e.type) {
      case TraceEventType::kSegmentSent:
        RecordBuffer('S')
            .real(e.t)
            .integer(e.seq)
            .flag(e.retransmission)
            .integer(e.in_flight)
            .real(e.cwnd)
            .end_line(out);
        break;
      case TraceEventType::kAckReceived:
        RecordBuffer('A').real(e.t).integer(e.seq).flag(e.duplicate).end_line(out);
        break;
      case TraceEventType::kTimeout:
        RecordBuffer('T')
            .real(e.t)
            .integer(e.seq)
            .integer(e.consecutive)
            .real(e.value)
            .end_line(out);
        break;
      case TraceEventType::kFastRetransmit:
        RecordBuffer('F').real(e.t).integer(e.seq).end_line(out);
        break;
      case TraceEventType::kRttSample:
        RecordBuffer('R').real(e.t).real(e.value).integer(e.in_flight).end_line(out);
        break;
    }
  }
  return out;
}

std::vector<TraceEvent> read_trace(std::istream& is) {
  return read_trace_impl(is, ReadMode::kStrict, nullptr);
}

std::vector<TraceEvent> read_trace_lenient(std::istream& is, TraceReadReport* report) {
  return read_trace_impl(is, ReadMode::kLenient, report);
}

void save_trace_file(const std::string& path, std::span<const TraceEvent> events) {
  PFTK_SPAN("trace.save", events.size());
  // Serialize in memory, then durably replace the target (write-temp +
  // fsync + atomic rename): a crash mid-save never corrupts an existing
  // trace, and write/close failures throw robust::IoError.
  robust::atomic_write_file(path, format_trace(events), "trace.write");
}

std::vector<TraceEvent> load_trace_file(const std::string& path) {
  PFTK_SPAN("trace.ingest");
  // Fast path: mmap + chunk-parallel parse. Armed failpoints need the
  // reference reader's per-line evaluation order, and pipes/devices
  // cannot be mapped — both fall back below.
  if (!robust::any_failpoint_armed()) {
    MmapFile map;
    bool mapped;
    {
      PFTK_SPAN("trace.mmap_open");
      mapped = map.open(path);
    }
    if (mapped) {
      return read_trace_buffer_strict(map.view());
    }
  }
  std::ifstream is(path);
  if (!is) {
    throw std::invalid_argument("load_trace_file: cannot open " + path);
  }
  return read_trace(is);
}

std::vector<TraceEvent> load_trace_file_lenient(const std::string& path,
                                                TraceReadReport* report) {
  PFTK_SPAN("trace.ingest");
  if (!robust::any_failpoint_armed()) {
    MmapFile map;
    bool mapped;
    {
      PFTK_SPAN("trace.mmap_open");
      mapped = map.open(path);
    }
    if (mapped) {
      return read_trace_buffer(map.view(), report);
    }
  }
  std::ifstream is(path);
  if (!is) {
    throw std::invalid_argument("load_trace_file_lenient: cannot open " + path);
  }
  return read_trace_lenient(is, report);
}

}  // namespace pftk::trace
