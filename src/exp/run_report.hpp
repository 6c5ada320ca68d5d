// Partial-result accounting for batch experiments.
//
// The paper's measurement campaign is hours of captures across dozens of
// paths; one pathological path must cost one row, not the table. Every
// robust driver fills a RunReport: what was attempted, what succeeded,
// which items failed with what diagnostic, the aggregate
// fault-injection counters and the merged metrics snapshot. Wall-clock
// timelines are not part of it: they live in the flight recorder
// (obs/flight), whose spans every run shares.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/fault_injector.hpp"

namespace pftk::exp {

/// One item (profile, connection, or file) that could not be processed.
struct RunFailure {
  std::string label;  ///< profile label, "trace 17", or a file path
  std::string error;  ///< the exception's what()
};

/// Outcome roll-up of one batch run.
struct RunReport {
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
  std::vector<RunFailure> failures;
  /// Impairment counters aggregated over every *successful* run.
  sim::FaultStats forward_faults;
  sim::FaultStats reverse_faults;
  /// Merged metrics snapshot (empty when observability was off).
  obs::MetricsSnapshot metrics;
  /// True when the run was cut short by SIGINT/SIGTERM: items not yet
  /// settled were abandoned (not counted as attempted or failed) and the
  /// journal remains valid for `--resume`.
  bool interrupted = false;

  [[nodiscard]] bool all_ok() const noexcept { return failures.empty(); }

  void record_success() {
    ++attempted;
    ++succeeded;
  }
  void record_failure(std::string label, std::string error) {
    ++attempted;
    failures.push_back(RunFailure{std::move(label), std::move(error)});
  }

  /// Folds `other` into this report: counters sum, fault stats add,
  /// metrics merge by name, and `other`'s failures are appended *after*
  /// ours in their original order. Merging per-worker or per-scenario
  /// reports in a fixed order therefore yields a deterministic combined
  /// report regardless of how the work was scheduled. Self-merge
  /// doubles every additive field (and is safe). @throws
  /// std::invalid_argument when a shared metric name disagrees on kind
  /// or bucket layout (see MetricsSnapshot::merge).
  RunReport& merge(const RunReport& other);

  /// Multi-line human-readable summary (for bench/CLI footers).
  [[nodiscard]] std::string describe() const;
};

}  // namespace pftk::exp
