// `pftk prof` aggregation over a pftk-spans/1 file.
//
// Rebuilds the per-thread nesting structure from begin/end stamps (the
// drain sorts parents ahead of children), then reports per-name
// inclusive time, exclusive self-time (inclusive minus direct
// children), count, and p50/p99 of span durations, plus a parent→child
// rollup of where each scope's time went. For serve recordings it also
// re-derives the PR 7 accounting identity from span counts alone:
//   requests == served + shed + deadline_missed + internal
// which must hold exactly on a lossless (zero-drop) recording. A
// recording that dropped spans cannot decide it either way, so the
// verdict is three-state: OK, VIOLATED, or INDETERMINATE.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/flight/flight_recorder.hpp"

namespace pftk::obs::flight {

/// Aggregate for one span name.
struct NameStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t inclusive_ns = 0;  ///< sum of span durations
  std::uint64_t exclusive_ns = 0;  ///< inclusive minus direct children
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
};

/// One parent→child edge of the nesting rollup.
struct RollupEdge {
  std::string parent;
  std::string child;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Serve accounting identity re-derived from marker-span counts. Only
/// meaningful when `present` (at least one serve.req.* marker seen).
struct ServeSpanIdentity {
  bool present = false;
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t internal_errors = 0;

  [[nodiscard]] bool holds() const noexcept {
    return requests == served + shed + deadline_missed + internal_errors;
  }
};

/// The serve identity's verdict. Any dropped span makes the counts lower
/// bounds, so a lossy recording is INDETERMINATE whatever they say.
enum class ServeVerdict { kOk, kViolated, kIndeterminate };

/// Stable lowercase token: "ok", "violated", "indeterminate".
[[nodiscard]] const char* serve_verdict_name(ServeVerdict verdict) noexcept;

struct ProfReport {
  std::vector<NameStats> names;    ///< sorted by exclusive_ns descending
  std::vector<RollupEdge> rollup;  ///< sorted by total_ns descending
  ServeSpanIdentity serve;
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
  std::uint32_t threads = 0;
  std::uint64_t wall_ns = 0;  ///< max end − min begin across all spans

  /// Meaningful only when serve.present.
  [[nodiscard]] ServeVerdict serve_verdict() const noexcept {
    if (dropped > 0) {
      return ServeVerdict::kIndeterminate;
    }
    return serve.holds() ? ServeVerdict::kOk : ServeVerdict::kViolated;
  }
};

/// Aggregates drained (or loaded) spans into the report.
[[nodiscard]] ProfReport profile_spans(const DrainedSpans& drained);

/// Human-oriented table (self-time ordered) + rollup + identity line
/// ending in `[OK]`, `[VIOLATED]` or `[INDETERMINATE: N spans dropped]`.
[[nodiscard]] std::string render_prof_text(const ProfReport& report);

/// Machine form: single `pftk-prof/2` JSON document (the serve identity
/// block carries `"verdict":"ok|violated|indeterminate"`).
void write_prof_json(std::ostream& os, const ProfReport& report);

}  // namespace pftk::obs::flight
