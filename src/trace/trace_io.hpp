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
// Writing is one pass of std::to_chars into a single reserved string
// (format_trace), which save_trace_file hands to the durable writer.
// to_chars fixed and glibc's printf("%.9f") are both correctly rounded
// (ties to even), so every real prints exactly as "%.9f" would;
// tests/data holds a golden capture that pins the bytes.
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
// The istream readers here are the *reference* implementation. File
// loads route through the mmap + chunk-parallel fast path in
// trace_reader_fast.hpp (GB/s-class), which is held byte-identical to
// these readers by the corruption-matrix parity tests and the
// `pftk bench` parity gate.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
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
/// Reals are fixed with 9 decimals, byte-identical to printf("%.9f").
/// @throws std::logic_error if a field does not fit its record buffer
/// (sized for DBL_MAX, so never for a real double).
[[nodiscard]] std::string format_trace(std::span<const TraceEvent> events);

/// Reads a trace written by format_trace (strict mode).
/// @throws std::invalid_argument on any malformed line (with its number).
[[nodiscard]] std::vector<TraceEvent> read_trace(std::istream& is);

/// Reads a trace, skipping malformed/truncated lines instead of
/// throwing. Never throws on content (only on stream faults); fills
/// `report` (if non-null) with what was salvaged and dropped.
[[nodiscard]] std::vector<TraceEvent> read_trace_lenient(std::istream& is,
                                                         TraceReadReport* report = nullptr);

/// Convenience file wrappers. Loads take the mmap + chunk-parallel fast
/// path (trace_reader_fast.hpp) when the input is a mappable regular
/// file and no failpoints are armed; pipes, devices and armed-failpoint
/// runs fall back to the istream reference reader above. Both paths
/// produce byte-identical events and reports — a tested contract. Saves
/// format the trace and replace the file via robust::atomic_write_file
/// (temp + fsync + rename, `trace.write` failpoint) inside a
/// `trace.save` flight-recorder span.
/// @throws std::invalid_argument if a file cannot be opened for loading.
/// @throws robust::IoError if a save fails.
void save_trace_file(const std::string& path, std::span<const TraceEvent> events);
[[nodiscard]] std::vector<TraceEvent> load_trace_file(const std::string& path);
[[nodiscard]] std::vector<TraceEvent> load_trace_file_lenient(
    const std::string& path, TraceReadReport* report = nullptr);

}  // namespace pftk::trace
