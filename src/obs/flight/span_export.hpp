// Flight-recorder span export/import.
//
// Two formats from one drain, picked by file extension in
// save_spans_file:
//   *.json  — Chrome/Perfetto trace-event JSON ("traceEvents" array of
//             ph:"X" complete events, ts/dur in microseconds), loadable
//             in chrome://tracing and ui.perfetto.dev.
//   *       — `pftk-spans/1` JSONL: one header line (schema, source,
//             span/drop/thread counts) then one line per span with raw
//             nanosecond timestamps. This is the lossless format `pftk
//             prof` consumes.
// Both are serialized in memory and written via
// robust::atomic_write_file (failpoint site "flight.write"), so a crash
// mid-write never leaves a torn span file.
#pragma once

#include <string>
#include <string_view>

#include "obs/flight/flight_recorder.hpp"

namespace pftk::obs::flight {

inline constexpr std::string_view kSpansSchema = "pftk-spans/1";

/// Chrome trace-event JSON (one document, pretty enough for diffing).
[[nodiscard]] std::string render_chrome_json(const DrainedSpans& drained,
                                             std::string_view source);

/// pftk-spans/1 JSONL: header line + one object per span.
[[nodiscard]] std::string render_spans_jsonl(const DrainedSpans& drained,
                                             std::string_view source);

/// Writes `drained` to `path` atomically; ".json" suffix selects the
/// Chrome format, anything else the JSONL. Throws robust::IoError on
/// I/O failure.
void save_spans_file(const std::string& path, const DrainedSpans& drained,
                     std::string_view source);

/// Strict pftk-spans/1 reader: validates the schema header and every
/// span line, and counts span lines missing against the header's `spans`
/// as dropped; throws std::invalid_argument on malformed input (or more
/// span lines than the header counted) and robust::IoError when the file
/// cannot be read.
[[nodiscard]] DrainedSpans load_spans_file(const std::string& path);

}  // namespace pftk::obs::flight
