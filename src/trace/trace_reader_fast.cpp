#include "trace/trace_reader_fast.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "obs/flight/flight_recorder.hpp"
#include "robust/durable_file.hpp"
#include "robust/failpoint.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_scan.hpp"

namespace pftk::trace {

namespace detail {

// Sanity bounds on decoded fields. A well-formed capture of any
// simulatable length sits far inside these; values beyond them are the
// signature of corruption (e.g. a negative number read into an unsigned
// field wraps to ~1.8e19 and is caught here).
namespace {
constexpr double kMaxTime = 1e12;         // seconds
constexpr double kMaxDurationValue = 1e6; // RTO/RTT sample, seconds
constexpr std::uint64_t kMaxSeq = 1'000'000'000'000ULL;
constexpr std::size_t kMaxInFlight = 1'000'000'000;
constexpr double kMaxCwnd = 1e9;

/// The classic-locale whitespace set — what `istream >>` skips.
constexpr bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

struct Cursor {
  const char* p;
  const char* end;

  bool skip_ws() noexcept {
    while (p < end && is_ws(*p)) {
      ++p;
    }
    return p < end;
  }
};

/// One decimal digit, or >9 for any other byte (single unsigned compare
/// in the hot loops).
constexpr unsigned digit_of(char ch) noexcept {
  return static_cast<unsigned>(ch) - static_cast<unsigned>('0');
}

/// Unsigned decimal with num_get semantics: optional sign ('-' wraps
/// modulo 2^64, like strtoull), failure on overflow (num_get sets
/// failbit) and on a missing digit. The hot loop accumulates with no
/// overflow check — every <= 19-digit value fits in 64 bits — and only
/// a 20-digit-or-longer token (corruption, never the writer's output)
/// takes the exact checked re-parse.
bool parse_u64(Cursor& c, std::uint64_t& out) noexcept {
  if (!c.skip_ws()) {
    return false;
  }
  bool negative = false;
  if (*c.p == '+' || *c.p == '-') {
    negative = *c.p == '-';
    ++c.p;
  }
  const char* p = c.p;
  const char* const end = c.end;
  const char* const first = p;
  std::uint64_t value = 0;
  while (p < end && digit_of(*p) <= 9) {
    value = value * 10 + digit_of(*p);
    ++p;
  }
  if (p == first) {
    return false;
  }
  if (p - first >= 20) {
    value = 0;
    for (const char* q = first; q < p; ++q) {
      const std::uint64_t digit = digit_of(*q);
      if (value > (UINT64_MAX - digit) / 10) {
        return false;  // overflow: num_get would set failbit
      }
      value = value * 10 + digit;
    }
  }
  c.p = p;
  out = negative ? (0 - value) : value;
  return true;
}

/// Signed decimal into int, failing on int overflow like num_get.
bool parse_i32(Cursor& c, int& out) noexcept {
  if (!c.skip_ws()) {
    return false;
  }
  bool negative = false;
  if (*c.p == '+' || *c.p == '-') {
    negative = *c.p == '-';
    ++c.p;
  }
  const char* p = c.p;
  const char* const end = c.end;
  const char* const first = p;
  std::int64_t value = 0;
  while (p < end && digit_of(*p) <= 9 && p - first < 18) {
    value = value * 10 + static_cast<int>(digit_of(*p));
    ++p;
  }
  if (p == first) {
    return false;
  }
  if (p < end && digit_of(*p) <= 9) {
    // 19+ digits (corruption or heavy zero-padding): re-scan with a
    // bounded accumulator — leading zeros stay valid, real overflow
    // fails like num_get's failbit. Signed overflow is UB, so the hot
    // loop above must not run this long unchecked.
    value = 0;
    p = first;
    while (p < end && digit_of(*p) <= 9) {
      value = value * 10 + static_cast<int>(digit_of(*p));
      if (value > (std::int64_t{1} << 40)) {
        return false;
      }
      ++p;
    }
  }
  if (negative) {
    value = -value;
  }
  if (value < INT32_MIN || value > INT32_MAX) {
    return false;
  }
  c.p = p;
  out = static_cast<int>(value);
  return true;
}

/// Exact powers of ten up to 10^22, the largest exactly-representable
/// one — the domain of Clinger's single-rounding fast path.
constexpr std::array<double, 23> kPow10 = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/// Floating decimal with num_get/strtod semantics. The common case —
/// the writer's fixed 9-decimal format — takes Clinger's exact path:
/// a <= 15-digit mantissa and a <= 22 power-of-ten divisor are both
/// exactly representable, so one IEEE division yields the correctly
/// rounded value (identical to strtod). Everything else (exponents,
/// long mantissas) defers to std::from_chars, which is correctly
/// rounded too. "inf"/"nan" are rejected and "0x" stops at the 'x'
/// (value 0, cursor on the 'x'): num_get accepts neither grammar, and
/// the probe-tested libstdc++ behavior is to halt accumulation there.
bool parse_double(Cursor& c, double& out) noexcept {
  if (!c.skip_ws()) {
    return false;
  }
  const char* const start = c.p;
  bool negative = false;
  if (*c.p == '+' || *c.p == '-') {
    negative = *c.p == '-';
    ++c.p;
  }
  // Hot loops accumulate with no digit cap: a 16+-digit token wraps the
  // u64 mantissa harmlessly (defined for unsigned) because the digit
  // count computed from pointer diffs routes it to the from_chars slow
  // path, which re-reads from `start`.
  const char* p = c.p;
  const char* const end = c.end;
  std::uint64_t mantissa = 0;
  const char* const int_first = p;
  while (p < end && digit_of(*p) <= 9) {
    mantissa = mantissa * 10 + digit_of(*p);
    ++p;
  }
  std::ptrdiff_t digits = p - int_first;
  std::ptrdiff_t frac_digits = 0;
  if (p < end && *p == '.') {
    ++p;
    const char* const frac_first = p;
    while (p < end && digit_of(*p) <= 9) {
      mantissa = mantissa * 10 + digit_of(*p);
      ++p;
    }
    frac_digits = p - frac_first;
    digits += frac_digits;
  }
  if (digits == 0) {
    return false;  // no digit at all: also rejects inf/nan and stray text
  }
  const bool has_exponent = p < end && (*p == 'e' || *p == 'E');
  if (!has_exponent && digits <= 15) {
    // digits <= 15 implies frac_digits <= 15 < 22: both the mantissa
    // and the power-of-ten divisor are exact, so one correctly-rounded
    // IEEE division reproduces strtod's result.
    double value = static_cast<double>(mantissa);
    if (frac_digits > 0) {
      value /= kPow10[static_cast<std::size_t>(frac_digits)];
    }
    c.p = p;
    out = negative ? -value : value;
    return true;
  }
  // Slow path: re-parse the full token from the start. from_chars
  // rejects a leading '+' that strtod accepts, so skip it ourselves.
  const char* fc_start = (*start == '+') ? start + 1 : start;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(fc_start, c.end, value, std::chars_format::general);
  if (ec != std::errc()) {
    return false;  // includes overflow/underflow: num_get sets failbit
  }
  if (ptr < c.end && (*ptr == 'e' || *ptr == 'E')) {
    // An incomplete exponent ("5e", "5e+"): num_get accumulates the 'e'
    // and the conversion then fails; mirror that failure.
    return false;
  }
  c.p = ptr;
  out = value;  // sign already folded in ('+' is implicit, '-' parsed)
  return true;
}

}  // namespace

bool validate_event(const TraceEvent& e, std::string& error) {
  if (!(std::isfinite(e.cwnd) && e.cwnd >= 0.0 && e.cwnd <= kMaxCwnd)) {
    error = "cwnd out of range";
    return false;
  }
  if (e.consecutive < 0 || e.consecutive > 64) {
    error = "timeout depth out of range";
    return false;
  }
  if (!(std::isfinite(e.t) && e.t >= 0.0 && e.t <= kMaxTime)) {
    error = "timestamp out of range";
    return false;
  }
  if (e.seq > kMaxSeq) {
    error = "sequence number out of range";
    return false;
  }
  if (e.in_flight > kMaxInFlight) {
    error = "in-flight count out of range";
    return false;
  }
  if (!(std::isfinite(e.value) && e.value >= -kMaxDurationValue &&
        e.value <= kMaxDurationValue)) {
    error = "duration value out of range";
    return false;
  }
  return true;
}

bool parse_line_fast(const char* begin, const char* end, TraceEvent& event,
                     std::string& error) {
  // NUL detection is deferred to the failure path: no token class and
  // not skip_ws ever consumes a NUL, so a line that parses cleanly
  // provably contains none — scanning every healthy line up front would
  // double the memory traffic for a diagnostic that only matters on
  // corrupt input. fail() below rewrites the diagnostic when a NUL is
  // present, so "embedded NUL byte" wins over any field diagnostic.
  const auto fail = [&](const char* diagnostic) {
    error = std::memchr(begin, '\0', static_cast<std::size_t>(end - begin)) !=
                    nullptr
                ? "embedded NUL byte"
                : diagnostic;
    return false;
  };
  Cursor c{begin, end};
  char tag = 0;
  if (c.skip_ws()) {
    tag = *c.p++;
  }
  TraceEvent e;
  int flag = 0;
  std::uint64_t in_flight = 0;
  switch (tag) {
    case 'S':
      e.type = TraceEventType::kSegmentSent;
      if (!(parse_double(c, e.t) && parse_u64(c, e.seq) && parse_i32(c, flag) &&
            parse_u64(c, in_flight) && parse_double(c, e.cwnd))) {
        return fail("malformed S record");
      }
      e.retransmission = flag != 0;
      e.in_flight = static_cast<std::size_t>(in_flight);
      break;
    case 'A':
      e.type = TraceEventType::kAckReceived;
      if (!(parse_double(c, e.t) && parse_u64(c, e.seq) && parse_i32(c, flag))) {
        return fail("malformed A record");
      }
      e.duplicate = flag != 0;
      break;
    case 'T':
      e.type = TraceEventType::kTimeout;
      if (!(parse_double(c, e.t) && parse_u64(c, e.seq) &&
            parse_i32(c, e.consecutive) && parse_double(c, e.value))) {
        return fail("malformed T record");
      }
      break;
    case 'F':
      e.type = TraceEventType::kFastRetransmit;
      if (!(parse_double(c, e.t) && parse_u64(c, e.seq))) {
        return fail("malformed F record");
      }
      break;
    case 'R':
      e.type = TraceEventType::kRttSample;
      if (!(parse_double(c, e.t) && parse_double(c, e.value) &&
            parse_u64(c, in_flight))) {
        return fail("malformed R record");
      }
      e.in_flight = static_cast<std::size_t>(in_flight);
      break;
    default:
      if (std::memchr(begin, '\0', static_cast<std::size_t>(end - begin)) !=
          nullptr) {
        error = "embedded NUL byte";
        return false;
      }
      error = std::string("unknown record tag '") + tag + "'";
      return false;
  }
  if (c.skip_ws()) {
    return fail("trailing garbage");
  }
  if (!validate_event(e, error)) {
    return false;
  }
  event = e;
  return true;
}

}  // namespace detail

namespace {

/// One pass over the whole image on the calling thread, filling `rep`.
/// While any failpoint is armed, `trace.read.line` is evaluated before
/// each line, in file order, so a fixed spec fires at a fixed line.
std::vector<TraceEvent> parse_image(std::string_view data, bool stop_at_first_error,
                                    TraceReadReport& rep) {
  PFTK_SPAN("trace.parse", data.size());
  const bool inject_faults = robust::any_failpoint_armed();
  rep = TraceReadReport{};
  std::vector<TraceEvent> events;
  events.reserve(data.size() / 24 + 4);
  bool last_line_unterminated = false;
  bool last_line_bad = false;
  bool last_line_event = false;
  std::size_t end = data.size();
  std::size_t pos = 0;
  std::string error;
  while (pos < end) {
    const std::size_t nl = find_newline(data.substr(0, end), pos);
    bool terminated = nl != std::string_view::npos;
    std::size_t raw_end = terminated ? nl : end;
    if (inject_faults) {
      const robust::FailpointHit hit = robust::failpoint("trace.read.line");
      if (hit.action == robust::FailpointAction::kShortWrite) {
        // A torn tail: this line keeps `arg` bytes and the input ends.
        raw_end = pos + static_cast<std::size_t>(
                            std::min<std::uint64_t>(hit.arg, raw_end - pos));
        terminated = false;
        end = raw_end;
      } else {
        robust::apply_failpoint(hit, "trace.read.line");
      }
    }
    ++rep.lines_total;
    last_line_unterminated = !terminated;
    last_line_bad = false;
    last_line_event = false;
    const char* line_begin = data.data() + pos;
    const char* content_end = data.data() + raw_end;
    if (content_end > line_begin && content_end[-1] == '\r') {
      --content_end;  // tolerate CRLF captures
    }
    if (content_end == line_begin || *line_begin == '#') {
      ++rep.comment_lines;
    } else {
      TraceEvent event;
      if (detail::parse_line_fast(line_begin, content_end, event, error)) {
        events.push_back(event);
        ++rep.events_parsed;
        last_line_event = true;
      } else {
        last_line_bad = true;
        ++rep.lines_dropped;
        // Actual on-disk bytes consumed by the dropped line: content
        // plus any '\r' plus the '\n' terminator if one existed.
        rep.bytes_dropped += (raw_end - pos) + (terminated ? 1 : 0);
        if (rep.first_error_line == 0) {
          rep.first_error_line = rep.lines_total;
          rep.first_error = error;
          if (stop_at_first_error) {
            return events;
          }
        }
      }
    }
    pos = terminated ? nl + 1 : end;
  }
  rep.truncated = last_line_unterminated && last_line_bad;
  rep.suspect_final_event = last_line_unterminated && last_line_event;
  return events;
}

/// Appends everything `fd` yields until EOF; false on a read error.
bool read_to_end(int fd, std::string& out) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      return true;
    } else if (errno != EINTR) {
      return false;
    }
  }
}

}  // namespace

TraceFileImage::~TraceFileImage() {
  if (mapped_) {
    ::munmap(const_cast<char*>(view_.data()), view_.size());
  }
}

bool TraceFileImage::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);  // the mapping holds its own reference
      ::madvise(map, size, MADV_SEQUENTIAL);
      view_ = {static_cast<const char*>(map), size};
      mapped_ = true;
      return true;
    }
  }
  // Pipes, devices, empty or procfs files and unmappable filesystems are
  // read to EOF instead; a directory fails here with EISDIR.
  const bool ok = read_to_end(fd, owned_);
  ::close(fd);
  view_ = owned_;
  return ok;
}

std::vector<TraceEvent> read_trace_lenient(std::string_view data,
                                           TraceReadReport* report) {
  TraceReadReport local;
  return parse_image(data, /*stop_at_first_error=*/false,
                     report != nullptr ? *report : local);
}

std::vector<TraceEvent> read_trace(std::string_view data) {
  TraceReadReport rep;
  auto events = parse_image(data, /*stop_at_first_error=*/true, rep);
  if (rep.first_error_line != 0) {
    throw std::invalid_argument("read_trace: line " +
                                std::to_string(rep.first_error_line) + ": " +
                                rep.first_error);
  }
  return events;
}

}  // namespace pftk::trace
