// The canonical pftk_* metric set.
//
// Every producer (CLI runs, the campaign runner, benches, tests) speaks
// the same metric names, so dashboards and the EXPERIMENTS.md reference
// stay true no matter which command wrote the file. Names follow
// Prometheus conventions: `_total` counters, `_seconds` histograms,
// plain gauges for high-water marks.
#pragma once

#include "obs/event_loop_stats.hpp"
#include "obs/metrics.hpp"

namespace pftk::obs {

/// Ids of every standard metric, valid for the registry they were
/// registered on. Register once, before freeze().
struct StandardMetrics {
  // TCP protocol counters (sender's view — the paper's Table 2 columns).
  MetricId packets_sent;      ///< pftk_packets_sent_total
  MetricId retransmissions;   ///< pftk_retransmissions_total
  MetricId td_indications;    ///< pftk_td_indications_total (fast retransmits)
  MetricId timeouts;          ///< pftk_timeouts_total (individual expirations)
  MetricId acks;              ///< pftk_acks_received_total
  MetricId dup_acks;          ///< pftk_dup_acks_received_total
  // Event-loop counters (EventLoopStats mirror).
  MetricId events_scheduled;  ///< pftk_events_scheduled_total
  MetricId events_executed;   ///< pftk_events_executed_total
  MetricId events_cancelled;  ///< pftk_events_cancelled_total
  MetricId heap_compactions;  ///< pftk_event_heap_compactions_total
  MetricId heap_peak;         ///< pftk_event_heap_peak (gauge)
  MetricId slab_peak;         ///< pftk_event_slab_peak (gauge)
  // Connection-event ring accounting.
  MetricId conn_events;          ///< pftk_conn_events_recorded_total
  MetricId conn_events_dropped;  ///< pftk_conn_events_dropped_total
  // Fault-injection counters (both directions summed).
  MetricId fault_offered;     ///< pftk_fault_offered_total
  MetricId fault_dropped;     ///< pftk_fault_dropped_total
  MetricId fault_duplicated;  ///< pftk_fault_duplicated_total
  MetricId fault_reordered;   ///< pftk_fault_reordered_total
  MetricId fault_delayed;     ///< pftk_fault_delayed_total
  // Trace-pipeline salvage (TraceReadReport surfaced as counters).
  MetricId trace_lines_dropped;  ///< pftk_trace_lines_dropped_total
  MetricId trace_bytes_dropped;  ///< pftk_trace_bytes_dropped_total
  MetricId trace_files_dirty;    ///< pftk_trace_files_dirty_total
  // Supervision.
  MetricId watchdog_trips;  ///< pftk_watchdog_trips_total
  MetricId invariant_violations;  ///< pftk_invariant_violations_total
  // Latency histograms (wall clock; profiling only).
  MetricId rtt_seconds;      ///< pftk_rtt_seconds (simulated RTT samples)
  MetricId attempt_seconds;  ///< pftk_attempt_seconds (campaign attempts)
  MetricId backoff_seconds;  ///< pftk_backoff_seconds (retry waits)
  // Campaign roll-up.
  MetricId items_total;      ///< pftk_campaign_items_total
  MetricId items_ok;         ///< pftk_campaign_items_ok_total
  MetricId retries;          ///< pftk_campaign_retries_total
  MetricId journal_writes;   ///< pftk_journal_writes_total
  MetricId journal_bytes;    ///< pftk_journal_bytes_total
  MetricId journal_flushes;  ///< pftk_journal_flushes_total
  MetricId journal_replayed; ///< pftk_journal_replayed_total
  // Model-checker exploration (`pftk explore`).
  MetricId mc_explored_states;  ///< pftk_mc_explored_states_total
  MetricId mc_pruned;           ///< pftk_mc_pruned_total (branches)
  MetricId mc_violations;       ///< pftk_mc_violations_total

  /// Registers the full set on `registry` (which must not be frozen).
  [[nodiscard]] static StandardMetrics register_on(MetricsRegistry& registry);

  /// Copies an event-loop sink into the counters/gauges on `shard`.
  void record_event_loop(MetricsShard& shard, const EventLoopStats& stats) const;
};

/// The canonical serving metric set (`pftk serve`). Registered
/// separately from StandardMetrics: the daemon derives these from its
/// own crash-safe atomic totals (src/serve/serve_metrics.hpp) rather
/// than recording through single-writer shards, but the *names* live
/// here so every exporter and dashboard agrees on them.
struct ServeMetrics {
  MetricId requests;          ///< pftk_serve_requests_total (admitted)
  MetricId served;            ///< pftk_serve_served_total
  MetricId shed;              ///< pftk_serve_shed_total (BUSY rejections)
  MetricId deadline_missed;   ///< pftk_serve_deadline_missed_total
  MetricId internal_errors;   ///< pftk_serve_internal_errors_total
  MetricId protocol_errors;   ///< pftk_serve_protocol_errors_total
  MetricId oversized;         ///< pftk_serve_oversized_lines_total
  MetricId pings;             ///< pftk_serve_pings_total
  MetricId connections;       ///< pftk_serve_connections_total
  MetricId rejected_connections;  ///< pftk_serve_rejected_connections_total
  MetricId disconnects;       ///< pftk_serve_client_disconnects_total
  MetricId batches;           ///< pftk_serve_batches_total
  MetricId batched_requests;  ///< pftk_serve_batched_requests_total
  MetricId calib_chunks;      ///< pftk_serve_calib_chunks_total
  MetricId metrics_flushes;   ///< pftk_serve_metrics_flushes_total
  MetricId queue_peak;        ///< pftk_serve_queue_peak (gauge)
  MetricId latency_seconds;   ///< pftk_serve_latency_seconds (histogram)
  MetricId queue_wait_ms;     ///< pftk_serve_queue_wait_ms (histogram)

  /// Registers the set; `latency_bounds` (seconds) and
  /// `queue_wait_bounds` (milliseconds) become the histogram edges.
  [[nodiscard]] static ServeMetrics register_on(
      MetricsRegistry& registry, std::vector<double> latency_bounds,
      std::vector<double> queue_wait_bounds);
};

}  // namespace pftk::obs
