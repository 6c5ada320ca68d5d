// Per-run loss-indication breakdown from a connection-event timeline —
// the `pftk obs summarize` engine.
//
// The paper's central modeling decision (Section II) is splitting loss
// indications into triple-duplicate-ACK events (TD periods) and timeout
// sequences (TO periods with exponential backoff); Table 2 reports the
// split per trace and Figs. 5-6 show why it matters. This module
// recomputes that taxonomy from the obs event stream, so the split can
// be (a) printed next to any run and (b) cross-checked *exactly*
// against the simulator's internal counters — a disagreement means an
// instrumentation bug, not measurement noise.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "obs/conn_event_trace.hpp"

namespace pftk::obs {

/// TD/TO taxonomy recovered from one event stream.
struct LossBreakdown {
  std::uint64_t td = 0;            ///< fast_retransmit events (TD indications)
  std::uint64_t to_sequences = 0;  ///< timeout sequences (rto_fire level 1)
  std::uint64_t timeout_events = 0;  ///< individual rto_fire events
  int max_backoff_level = 0;       ///< deepest consecutive-timeout level seen
  /// timeouts_by_depth[k]: sequences of exactly k+1 timeouts; index 5
  /// aggregates "6 or more" (Table 2's T1..T6+ columns).
  std::array<std::uint64_t, 6> timeouts_by_depth{};
  // Adjacent regime signals.
  std::uint64_t slow_start_entries = 0;
  std::uint64_t cong_avoid_entries = 0;
  std::uint64_t rwnd_clamps = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t watchdog_trips = 0;
  double duration = 0.0;  ///< simulated span covered by the events

  [[nodiscard]] std::uint64_t loss_indications() const noexcept {
    return td + to_sequences;
  }
  /// Fraction of loss indications that are TD (1 - Q of eq. 29's spirit).
  [[nodiscard]] double td_fraction() const noexcept;
  [[nodiscard]] double to_fraction() const noexcept;
};

/// Folds one event stream (oldest first) into the taxonomy.
[[nodiscard]] LossBreakdown summarize_events(std::span<const ConnEvent> events);

/// Human-readable multi-line rendering (the `pftk obs summarize` body).
/// With events_dropped > 0 the TD/TO split prints as
/// "[INDETERMINATE: N events dropped]" instead of percentages.
[[nodiscard]] std::string render_breakdown_text(const LossBreakdown& breakdown,
                                                const std::string& source,
                                                std::uint64_t events_dropped);

/// Machine-readable rendering (`--json`): one stable JSON object, fields
/// only ever added. Counts are exact integers; fractions use fixed
/// 6-digit formatting so golden files are byte-stable, and are null when
/// events_dropped > 0.
void write_breakdown_json(std::ostream& os, const LossBreakdown& breakdown,
                          const std::string& source, std::uint64_t events_dropped);

}  // namespace pftk::obs
