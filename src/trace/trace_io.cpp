#include "trace/trace_io.hpp"

#include <bit>
#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/flight/flight_recorder.hpp"
#include "robust/durable_file.hpp"
#include "trace/trace_reader_fast.hpp"

namespace pftk::trace {

namespace {

/// Longest fixed/9 rendering of a double: sign, DBL_MAX's 309 integer
/// digits, the point and 9 decimals.
constexpr std::size_t kMaxRealChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 9;
/// Longest integer field: UINT64_MAX's 20 digits (INT_MIN needs 11).
constexpr std::size_t kMaxIntChars = std::numeric_limits<std::uint64_t>::digits10 + 1;

__extension__ typedef unsigned __int128 u128;

constexpr std::uint64_t kNanosPerSecond = 1'000'000'000;
/// The exact path's bound B = 2^53·10⁻⁹ s (about 104 days). Every
/// double below it has n = round(v·10⁹) ≤ 2^53 + 1, far inside a u64.
/// Non-negative doubles order like their bit patterns, so one unsigned
/// compare of the bits against B's also turns away -0.0, every negative
/// value, +inf and NaN.
constexpr std::uint64_t kExactLimitBits = std::bit_cast<std::uint64_t>(9007199.254740992);

/// round(v·10⁹), ties to even, for the v whose bits are `bits` (below
/// kExactLimitBits). With v = m·2^-s, m < 2^53, the product m·10⁹ is
/// below 2^83 and exact in 128 bits; dropping its low s bits and
/// rounding on them is the correctly rounded result `%.9f` prints.
std::uint64_t nanos_half_even(std::uint64_t bits) noexcept {
  const auto biased = static_cast<unsigned>(bits >> 52);
  const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  const std::uint64_t m = biased == 0 ? fraction : fraction | (std::uint64_t{1} << 52);
  // Below B, v < 2^24, so s ≥ 29. A shift of 128 or more is undefined;
  // by then v·10⁹ < 2^83·2^-128 is far below a half, so n is 0.
  const unsigned s = biased == 0 ? 1074 : 1075 - biased;
  if (s >= 128) {
    return 0;
  }
  const u128 product = static_cast<u128>(m) * kNanosPerSecond;
  const u128 q = product >> s;
  const u128 dropped = product & ((u128{1} << s) - 1);
  const u128 half = u128{1} << (s - 1);
  // Up when the dropped bits exceed a half, or equal it and q is odd.
  return static_cast<std::uint64_t>(q) + ((dropped + (q & 1)) > half ? 1 : 0);
}

/// One record assembled in a stack buffer sized for the worst record (S
/// and T: two reals, three integer or flag fields, the tag, five
/// separators and the newline), so no field value can be clipped.
class RecordBuffer {
 public:
  explicit RecordBuffer(char tag) noexcept { *p_++ = tag; }

  /// Fixed with 9 decimals, as `%.9f` prints it: below B by integer
  /// arithmetic, anything else by std::to_chars.
  RecordBuffer& real(double v) {
    *p_++ = '\t';
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (bits >= kExactLimitBits) {
      return advance(std::to_chars(p_, std::end(buf_), v, std::chars_format::fixed, 9));
    }
    const std::uint64_t n = nanos_half_even(bits);
    advance(std::to_chars(p_, std::end(buf_), n / kNanosPerSecond));
    // 10⁹ + the remainder prints a leading 1 and the nine zero-padded
    // decimals; the 1 is then overwritten by the point.
    char* const point = p_;
    advance(std::to_chars(point, std::end(buf_),
                          static_cast<std::uint32_t>(kNanosPerSecond + n % kNanosPerSecond)));
    *point = '.';
    return *this;
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

/// The loaders' shared open step: `image` holds the whole file, or the
/// load fails as `<loader>: cannot open <path>`.
std::string_view open_image(TraceFileImage& image, const std::string& path,
                            const char* loader) {
  PFTK_SPAN("trace.open");
  if (!image.open(path)) {
    throw std::invalid_argument(std::string(loader) + ": cannot open " + path);
  }
  return image.view();
}

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

void save_trace_file(const std::string& path, std::span<const TraceEvent> events) {
  PFTK_SPAN("trace.save", events.size());
  // Serialize in memory, then durably replace the target (write-temp +
  // fsync + atomic rename): a crash mid-save never corrupts an existing
  // trace, and write/close failures throw robust::IoError.
  robust::atomic_write_file(path, format_trace(events), "trace.write");
}

std::vector<TraceEvent> load_trace_file(const std::string& path) {
  PFTK_SPAN("trace.ingest");
  TraceFileImage image;
  return read_trace(open_image(image, path, "load_trace_file"));
}

std::vector<TraceEvent> load_trace_file_lenient(const std::string& path,
                                                TraceReadReport* report) {
  PFTK_SPAN("trace.ingest");
  TraceFileImage image;
  return read_trace_lenient(open_image(image, path, "load_trace_file_lenient"),
                            report);
}

}  // namespace pftk::trace
