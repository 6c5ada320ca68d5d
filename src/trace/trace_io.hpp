// Trace serialization — the reproduction's "tcpdump file" format.
//
// The paper's workflow separates capture (tcpdump at the sender) from
// analysis (their programs, cross-checked against tcptrace). This module
// provides the same separation: a simulation can dump its sender-side
// trace to a text file and every analyzer (loss classifier, RTT
// estimator, interval segmentation) can run on the reloaded copy.
//
// Format: one event per line, tab-separated:
//   S <t> <seq> <rexmit 0|1> <in_flight> <cwnd>      segment sent
//   A <t> <cum> <dup 0|1>                            ack received
//   T <t> <seq> <consecutive> <rto>                  timeout (ground truth)
//   F <t> <seq>                                      fast rtx (ground truth)
//   R <t> <sample> <in_flight>                       rtt sample (ground truth)
// Lines starting with '#' are comments. Times are seconds with fixed
// 9-digit precision, so a round trip is loss-free for simulation scales.
//
// Writing is one pass into a single reserved string (format_trace),
// which save_trace_file hands to the durable writer. A real v with a
// clear sign bit and v < 2^53·10⁻⁹ s (~104 days; every simulated time,
// cwnd, RTT sample and RTO) prints through an exact integer path: with
// v = m·2^e, n = round(m·10⁹·2^e), ties to even, comes from one 128-bit
// multiply and shift, and n/10⁹, a point and the nine-digit remainder
// are written. That is the correctly rounded decimal, which is what
// glibc's printf("%.9f") and std::to_chars(fixed, 9) both print. Every
// other real (-0.0, negatives, huge and non-finite values) goes to
// to_chars itself. tests/data holds a golden capture that pins the
// bytes, and test_trace_io checks the exact path against to_chars on
// over 10M values.
//
// Real capture files get truncated, hit disk-full mid-line, and pick up
// garbage; an hour of capture must not be voided by one bad line. The
// reader therefore has two modes:
//   * strict  — throw on the first malformed line (CI round-trip checks);
//   * lenient — skip malformed lines, recording what was dropped (and
//     whether the file looks truncated) in a TraceReadReport, so batch
//     experiments recover the valid prefix and report exact losses.
// A record is only accepted when the whole line is consumed (trailing
// whitespace aside): trailing garbage and two records merged onto one
// line are corruption, not events.
//
// Both modes parse an in-memory image with the one reader in
// trace_reader_fast.hpp, in one pass on the calling thread. The file
// loads put the whole file in memory first: a mapping for a regular
// file, the bytes read to EOF for a pipe or device.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace_event.hpp"

namespace pftk::trace {

/// What a lenient read salvaged and what it had to discard.
struct TraceReadReport {
  std::size_t lines_total = 0;      ///< every line seen (incl. comments)
  std::size_t events_parsed = 0;    ///< records successfully decoded
  std::size_t comment_lines = 0;    ///< '#' and blank lines
  std::size_t lines_dropped = 0;    ///< malformed lines skipped
  /// On-disk bytes consumed by the skipped lines: content plus any '\r'
  /// plus the '\n' terminator when one existed (a torn final line
  /// contributes exactly its own bytes — there is no terminator).
  std::size_t bytes_dropped = 0;
  std::size_t first_error_line = 0; ///< 1-based; 0 = no errors
  std::string first_error;          ///< diagnostic for the first bad line
  /// True when the file ends mid-record (no trailing newline and the
  /// final line failed to parse) — the signature of a truncated capture.
  bool truncated = false;
  /// True when the final line has no newline yet parsed cleanly. The
  /// event was salvaged, but a mid-record cut whose surviving prefix is
  /// field-complete looks exactly like this, so the last event is
  /// suspect and analyses that care about tail integrity should drop it.
  bool suspect_final_event = false;

  [[nodiscard]] bool clean() const noexcept {
    return lines_dropped == 0 && !truncated && !suspect_final_event;
  }
  /// One-line human-readable summary.
  [[nodiscard]] std::string describe() const;
};

/// Renders the trace, one event per line, preceded by a '#' header.
/// Reals are fixed with 9 decimals, byte-identical to printf("%.9f"):
/// integer arithmetic below 2^53·10⁻⁹, std::to_chars elsewhere.
/// @throws std::logic_error if a field does not fit its record buffer
/// (sized for DBL_MAX, so never for a real double).
[[nodiscard]] std::string format_trace(std::span<const TraceEvent> events);

/// Parses a trace image written by format_trace (strict mode).
/// @throws std::invalid_argument "read_trace: line N: <diagnostic>" for
/// the first malformed line.
/// @throws robust::IoError when an armed `trace.read.line` failpoint
/// injects a read error.
[[nodiscard]] std::vector<TraceEvent> read_trace(std::string_view data);

/// Parses a trace image, skipping malformed/truncated lines instead of
/// throwing, and fills `report` (if non-null) with what was salvaged and
/// dropped. Never throws on content.
[[nodiscard]] std::vector<TraceEvent> read_trace_lenient(
    std::string_view data, TraceReadReport* report = nullptr);

/// File wrappers. Loads open the file as a TraceFileImage (a mapping of
/// a regular file; pipes, /dev/stdin and devices are read to EOF) and
/// parse it with read_trace / read_trace_lenient. Saves format the trace
/// and replace the file via robust::atomic_write_file (temp + fsync +
/// rename, `trace.write` failpoint) inside a `trace.save` flight-recorder
/// span.
/// @throws std::invalid_argument "<loader>: cannot open <path>" when the
/// file cannot be opened or read (missing, unreadable, a directory).
/// @throws robust::IoError if a save fails.
void save_trace_file(const std::string& path, std::span<const TraceEvent> events);
[[nodiscard]] std::vector<TraceEvent> load_trace_file(const std::string& path);
[[nodiscard]] std::vector<TraceEvent> load_trace_file_lenient(
    const std::string& path, TraceReadReport* report = nullptr);

}  // namespace pftk::trace
