#include "obs/standard_metrics.hpp"

#include <utility>

namespace pftk::obs {

StandardMetrics StandardMetrics::register_on(MetricsRegistry& r) {
  StandardMetrics m;
  m.packets_sent = r.counter("pftk_packets_sent_total",
                             "Segments transmitted, incl. retransmissions");
  m.retransmissions =
      r.counter("pftk_retransmissions_total", "Fast + timeout retransmissions");
  m.td_indications = r.counter("pftk_td_indications_total",
                               "Triple-duplicate-ACK loss indications (TD)");
  m.timeouts =
      r.counter("pftk_timeouts_total", "Individual retransmission-timer expirations");
  m.acks = r.counter("pftk_acks_received_total", "Cumulative ACKs processed");
  m.dup_acks = r.counter("pftk_dup_acks_received_total", "Duplicate ACKs processed");
  m.events_scheduled =
      r.counter("pftk_events_scheduled_total", "Event-queue schedule calls");
  m.events_executed =
      r.counter("pftk_events_executed_total", "Event-queue callbacks executed");
  m.events_cancelled =
      r.counter("pftk_events_cancelled_total", "Live events cancelled");
  m.heap_compactions = r.counter("pftk_event_heap_compactions_total",
                                 "Lazy-cancel heap compaction passes");
  m.heap_peak = r.gauge("pftk_event_heap_peak",
                        "High-water heap entries (incl. cancelled)");
  m.slab_peak = r.gauge("pftk_event_slab_peak", "High-water callback slots");
  m.conn_events =
      r.counter("pftk_conn_events_recorded_total", "Connection events recorded");
  m.conn_events_dropped = r.counter("pftk_conn_events_dropped_total",
                                    "Connection events overwritten in the ring");
  m.fault_offered = r.counter("pftk_fault_offered_total",
                              "Packets inspected by fault injectors");
  m.fault_dropped =
      r.counter("pftk_fault_dropped_total", "Packets dropped by injected faults");
  m.fault_duplicated =
      r.counter("pftk_fault_duplicated_total", "Packets duplicated by faults");
  m.fault_reordered =
      r.counter("pftk_fault_reordered_total", "Packets held back by faults");
  m.fault_delayed =
      r.counter("pftk_fault_delayed_total", "Packets given spike delay");
  m.trace_lines_dropped = r.counter("pftk_trace_lines_dropped_total",
                                    "Malformed trace lines skipped by lenient reads");
  m.trace_bytes_dropped = r.counter("pftk_trace_bytes_dropped_total",
                                    "Bytes of dropped trace lines");
  m.trace_files_dirty = r.counter("pftk_trace_files_dirty_total",
                                  "Trace files that needed lenient salvage");
  m.watchdog_trips = r.counter("pftk_watchdog_trips_total", "Watchdog aborts");
  m.rtt_seconds = r.histogram(
      "pftk_rtt_seconds", "Karn-valid RTT samples (simulated seconds)",
      {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0});
  m.attempt_seconds = r.histogram(
      "pftk_attempt_seconds", "Campaign attempt wall time",
      {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0});
  m.backoff_seconds = r.histogram(
      "pftk_backoff_seconds", "Retry backoff waits (wall seconds)",
      {0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0});
  m.invariant_violations = r.counter("pftk_invariant_violations_total",
                                     "Runtime TCP invariant violations");
  m.items_total = r.counter("pftk_campaign_items_total", "Campaign items settled");
  m.items_ok = r.counter("pftk_campaign_items_ok_total", "Campaign items succeeded");
  m.retries = r.counter("pftk_campaign_retries_total",
                        "Attempts beyond each item's first");
  m.journal_writes = r.counter("pftk_journal_writes_total", "Journal lines written");
  m.journal_bytes = r.counter("pftk_journal_bytes_total", "Journal bytes appended");
  m.journal_flushes = r.counter("pftk_journal_flushes_total", "Journal flushes");
  m.journal_replayed = r.counter("pftk_journal_replayed_total",
                                 "Items satisfied from an existing journal");
  m.mc_explored_states = r.counter("pftk_mc_explored_states_total",
                                   "Model-checker choice points explored");
  m.mc_pruned = r.counter("pftk_mc_pruned_total",
                          "Model-checker branches pruned at visited states");
  m.mc_violations = r.counter("pftk_mc_violations_total",
                              "Model-checker violations found");
  return m;
}

ServeMetrics ServeMetrics::register_on(MetricsRegistry& r,
                                       std::vector<double> latency_bounds,
                                       std::vector<double> queue_wait_bounds) {
  ServeMetrics m;
  m.requests = r.counter("pftk_serve_requests_total",
                         "Requests admitted to a queueing decision");
  m.served = r.counter("pftk_serve_served_total", "Requests answered OK");
  m.shed = r.counter("pftk_serve_shed_total",
                     "Requests shed with BUSY at the admission watermark");
  m.deadline_missed = r.counter("pftk_serve_deadline_missed_total",
                                "Requests shed after their deadline expired");
  m.internal_errors = r.counter("pftk_serve_internal_errors_total",
                                "Requests answered ERR INTERNAL");
  m.protocol_errors = r.counter("pftk_serve_protocol_errors_total",
                                "Lines rejected with BADREQ");
  m.oversized = r.counter("pftk_serve_oversized_lines_total",
                          "Lines rejected with TOOBIG at the byte cap");
  m.pings = r.counter("pftk_serve_pings_total", "PING round trips");
  m.connections = r.counter("pftk_serve_connections_total", "Clients accepted");
  m.rejected_connections = r.counter("pftk_serve_rejected_connections_total",
                                     "Clients turned away over the client cap");
  m.disconnects = r.counter("pftk_serve_client_disconnects_total",
                            "Clients lost on the response path");
  m.batches = r.counter("pftk_serve_batches_total",
                        "Same-key MODEL batches drained together");
  m.batched_requests = r.counter("pftk_serve_batched_requests_total",
                                 "Requests evaluated inside those batches");
  m.calib_chunks = r.counter("pftk_serve_calib_chunks_total",
                             "CALIB trace chunks parsed (deadline checkpoints)");
  m.metrics_flushes = r.counter("pftk_serve_metrics_flushes_total",
                                "Durable metrics snapshots written");
  m.queue_peak = r.gauge("pftk_serve_queue_peak",
                         "High-water queued requests over every shard");
  m.latency_seconds = r.histogram("pftk_serve_latency_seconds",
                                  "Admission-to-response latency (wall seconds)",
                                  std::move(latency_bounds));
  m.queue_wait_ms =
      r.histogram("pftk_serve_queue_wait_ms",
                  "Admission-to-dequeue wait (milliseconds, merged shards)",
                  std::move(queue_wait_bounds));
  return m;
}

void StandardMetrics::record_event_loop(MetricsShard& shard,
                                        const EventLoopStats& stats) const {
  shard.add(events_scheduled, static_cast<double>(stats.scheduled));
  shard.add(events_executed, static_cast<double>(stats.executed));
  shard.add(events_cancelled, static_cast<double>(stats.cancelled));
  shard.add(heap_compactions, static_cast<double>(stats.compactions));
  shard.set(heap_peak, static_cast<double>(stats.heap_peak));
  shard.set(slab_peak, static_cast<double>(stats.slab_peak));
}

}  // namespace pftk::obs
