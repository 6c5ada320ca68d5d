// The trace reader behind read_trace / read_trace_lenient (trace_io.hpp):
// whole-file images and zero-copy field decoding, in one pass on the
// calling thread.
//
// Pipeline: TraceFileImage holds the capture in memory (a read-only
// mapping of a regular file, or the bytes of a pipe, /dev/stdin or
// device read to EOF), find_newline (trace_scan.hpp) cuts it into
// lines, and each line is decoded by a hand-rolled parser — no
// istringstream, no per-line std::string, numbers via std::from_chars
// with an exact small-decimal fast path. The parse fills the
// TraceReadReport as it goes (lines/bytes dropped, first error,
// truncation flags), and strict mode throws with the number of the
// first bad line.
//
// Failpoints: while any failpoint is armed, `trace.read.line` is
// evaluated once per line, in file order, before that line is parsed.
// short_write clips the line to `arg` bytes and ends the input there (a
// torn tail), error/enospc throw robust::IoError, delay sleeps and crash
// exits.
//
// The grammar is pinned by tests/test_trace_fast.cpp, which keeps an
// istream reader as its oracle: clean, mangled, CRLF, NUL-bearing and
// torn-tail inputs — including every byte offset of a final-record cut
// — must give identical TraceEvent vectors and reports.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "trace/trace_event.hpp"

namespace pftk::trace {

/// A whole trace file in memory, read-only: a private mapping of a
/// regular file, or — for pipes, /dev/stdin, devices and files that
/// cannot be mapped — the bytes read to EOF into an owned buffer. The
/// mapping is released on destruction.
class TraceFileImage {
 public:
  TraceFileImage() = default;
  ~TraceFileImage();
  TraceFileImage(const TraceFileImage&) = delete;
  TraceFileImage& operator=(const TraceFileImage&) = delete;

  /// Loads `path` into this (still empty) image. Returns false when the
  /// file cannot be opened or read to its end: missing, unreadable, a
  /// directory (EISDIR) or an I/O error.
  [[nodiscard]] bool open(const std::string& path);

  [[nodiscard]] std::string_view view() const noexcept { return view_; }

 private:
  std::string_view view_;  ///< the mapping, or owned_
  bool mapped_ = false;
  std::string owned_;
};

namespace detail {

/// Range validation of a decoded record, applied in a fixed order
/// (cwnd, timeout depth, timestamp, seq, in-flight, duration) so the
/// first diagnostic is deterministic. Returns false with the diagnostic
/// in `error`.
bool validate_event(const TraceEvent& e, std::string& error);

/// Zero-copy parse of one line (terminator and any trailing '\r'
/// already stripped): the trace grammar with `istream >>` token
/// semantics, its diagnostics, and the exhausted-after-fields
/// "trailing garbage" rule.
bool parse_line_fast(const char* begin, const char* end, TraceEvent& event,
                     std::string& error);

}  // namespace detail

}  // namespace pftk::trace
