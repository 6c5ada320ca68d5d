// Exporters for the observability layer.
//
// Two formats, one source of truth:
//   * Prometheus text exposition — counters/gauges/histograms rendered
//     the way a scrape endpoint would serve them (`_total`, `_bucket`
//     with inclusive `le` edges, `_sum`, `_count`), for ops tooling;
//   * schema-versioned JSONL ("pftk-obs/1") — one self-describing JSON
//     object per line: a header record, then metrics and connection
//     events. Line-oriented so a torn tail costs one record, like the
//     campaign journal; fields are only ever added, never renamed.
//
// The JSONL reader is the lenient inverse: it salvages every line it
// can parse and reports exactly what it skipped, mirroring the trace
// pipeline's TraceReadReport philosophy. A record kind it does not know
// (a newer writer's, or the per-item `span` records older campaign
// exports carried) is skipped and counted like any damaged line. Wall
// time lives in the flight recorder (obs/flight), not here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/conn_event_trace.hpp"
#include "obs/metrics.hpp"

namespace pftk::obs {

/// Everything one obs JSONL file carries.
struct ObsBundle {
  std::string source;  ///< producing command: "simulate", "campaign", ...
  MetricsSnapshot metrics;
  std::vector<ConnEvent> events;
  std::uint64_t events_dropped = 0;  ///< ring overwrites before export
};

/// What a lenient obs read salvaged.
struct ObsReadReport {
  std::size_t lines_total = 0;
  std::size_t records_parsed = 0;
  std::size_t lines_dropped = 0;
  std::string first_error;

  [[nodiscard]] bool clean() const noexcept { return lines_dropped == 0; }
};

/// Prometheus text exposition of a snapshot. Metric names must already
/// be exposition-safe (the registry's `pftk_*` names are).
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);

/// Writes the bundle as pftk-obs/1 JSONL (header line first).
/// @throws std::ios_base::failure on stream errors.
void write_obs_jsonl(std::ostream& os, const ObsBundle& bundle);

/// Reads pftk-obs/1 JSONL leniently: unknown record kinds and malformed
/// lines are skipped and counted in `report` (if non-null).
/// @throws std::invalid_argument when the header is missing or carries
/// an unsupported schema (that is a wrong-file error, not line damage).
[[nodiscard]] ObsBundle read_obs_jsonl(std::istream& is,
                                       ObsReadReport* report = nullptr);

/// File wrappers. @throws std::invalid_argument when unopenable; the
/// writer picks Prometheus format for paths ending in ".prom",
/// JSONL otherwise.
void save_obs_file(const std::string& path, const ObsBundle& bundle);
[[nodiscard]] ObsBundle load_obs_file(const std::string& path,
                                      ObsReadReport* report = nullptr);

/// True when `path` names Prometheus output (".prom" suffix).
[[nodiscard]] bool is_prometheus_path(const std::string& path) noexcept;

/// Folds `other` into `bundle` with the shard-merge semantics: metrics
/// merge by name (counters/buckets sum, gauges max — see
/// MetricsSnapshot::merge), events append, events_dropped
/// sums. Differing sources render as "a+b" so a merged file says so.
/// Used by multi-file `pftk obs summarize`.
/// @throws std::invalid_argument when a shared metric name disagrees on
/// kind or bucket layout.
void merge_obs_bundles(ObsBundle& bundle, const ObsBundle& other);

}  // namespace pftk::obs
