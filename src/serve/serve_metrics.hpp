// Serving-path accounting: exact, lock-free, crash-flushable.
//
// The daemon's robustness contract is an *accounting identity*: every
// admitted request is answered exactly once, so at any quiescent point
//
//   requests == served + shed + deadline_missed + internal_errors
//
// holds to the unit (asserted by tests and the selftest). The campaign
// obs registry cannot carry this — its shards are single-writer and
// every serve shard loop bumps the one shared ledger — so serving counters
// are plain relaxed atomics (any thread may bump any counter) plus a
// bucket-atomic latency histogram, and a MetricsSnapshot is *derived*
// from them at flush time. Flushes go through save_obs_file →
// atomic_write_file, so the metrics file on disk is always a complete,
// parseable pftk-obs/1 bundle — even when the process is killed between
// flushes, the previous snapshot survives intact.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace pftk::serve {

/// Plain-value capture of a histogram's counters. Mergeable, so the
/// per-shard queue-wait histograms can be combined into one snapshot at
/// summary/flush time without the workers ever sharing cache lines.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (+inf last)
  std::uint64_t count = 0;
  double sum = 0.0;
  std::uint64_t rejected = 0;

  /// Adds `other`'s counts into this snapshot (saturating).
  /// @throws std::invalid_argument when the bounds differ.
  void merge(const HistogramSnapshot& other);

  /// Linear-interpolated quantile estimate (q in [0,1]) from the bucket
  /// counts; 0 when empty. The +inf bucket clamps to the last edge.
  [[nodiscard]] double quantile(double q) const;
};

/// Latency histogram with atomically-updated buckets: safe for any
/// number of concurrent observers, mergeable into the obs snapshot
/// format. Bounds follow the obs convention (inclusive `le` edges, an
/// implicit +inf bucket); non-finite observations are rejected+counted.
/// All counters saturate at UINT64_MAX instead of wrapping, so a
/// pathological observation count degrades to a stuck ceiling rather
/// than a silently small (and identity-violating) value.
class ConcurrentHistogram {
 public:
  /// @throws std::invalid_argument on unsorted/non-finite bounds.
  explicit ConcurrentHistogram(std::vector<double> bounds);

  void observe(double x) noexcept { observe_n(x, 1); }

  /// Observes `x` with weight `n` (n pre-bucketed identical samples).
  /// Exists for bulk recording and so tests can reach the UINT64_MAX
  /// saturation region without 2^64 calls.
  void observe_n(double x, std::uint64_t n) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Bucket counts including the final +inf bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Linear-interpolated quantile estimate (q in [0,1]) from the bucket
  /// counts; 0 when empty. The +inf bucket clamps to the last edge.
  [[nodiscard]] double quantile(double q) const;

  /// Point-in-time copy of every counter (mergeable across shards).
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds + inf
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// The default request-latency edges, 100 µs to 2.5 s.
[[nodiscard]] std::vector<double> default_latency_bounds();

/// The default queue-wait edges in *milliseconds*, 10 µs to 1 s —
/// finer at the bottom than the latency edges because queue wait is the
/// overload signal: it inflates long before end-to-end latency blows
/// through its buckets.
[[nodiscard]] std::vector<double> default_queue_wait_bounds_ms();

/// Every serving counter, updated with relaxed atomics from any thread.
struct ServeTotals {
  // Admission-identity counters (requests = sum of the next four).
  std::atomic<std::uint64_t> requests{0};         ///< parsed + admitted to a queue decision
  std::atomic<std::uint64_t> served{0};           ///< answered OK
  std::atomic<std::uint64_t> shed{0};             ///< answered BUSY at the watermark
  std::atomic<std::uint64_t> deadline_missed{0};  ///< answered DEADLINE_EXCEEDED
  std::atomic<std::uint64_t> internal_errors{0};  ///< answered ERR INTERNAL
  // Outside the identity: never admitted, or not requests at all.
  std::atomic<std::uint64_t> protocol_errors{0};  ///< BADREQ answers
  std::atomic<std::uint64_t> oversized{0};        ///< TOOBIG answers
  std::atomic<std::uint64_t> pings{0};            ///< PING round trips
  std::atomic<std::uint64_t> connections{0};      ///< accepted clients
  std::atomic<std::uint64_t> rejected_connections{0};  ///< over max_clients
  std::atomic<std::uint64_t> disconnects{0};      ///< write-side client losses
  // Batching effectiveness.
  std::atomic<std::uint64_t> batches{0};           ///< multi-request drains
  std::atomic<std::uint64_t> batched_requests{0};  ///< requests inside them
  std::atomic<std::uint64_t> calib_chunks{0};      ///< trace chunks parsed
  // High-water mark over every shard queue (gauge semantics).
  std::atomic<std::uint64_t> queue_peak{0};
  std::atomic<std::uint64_t> metrics_flushes{0};
  std::atomic<std::uint64_t> metrics_flush_failures{0};

  void bump_queue_peak(std::uint64_t depth) noexcept {
    std::uint64_t seen = queue_peak.load(std::memory_order_relaxed);
    while (depth > seen &&
           !queue_peak.compare_exchange_weak(seen, depth,
                                             std::memory_order_relaxed)) {
    }
  }

  /// The accounting identity the overload tests assert.
  [[nodiscard]] bool accounting_ok() const noexcept {
    return requests.load() == served.load() + shed.load() +
                                  deadline_missed.load() + internal_errors.load();
  }
};

/// Plain-value copy of the totals for reports and summaries.
struct ServeSummary {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t internal_errors = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t oversized = 0;
  std::uint64_t pings = 0;
  std::uint64_t connections = 0;
  std::uint64_t rejected_connections = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t calib_chunks = 0;
  std::uint64_t queue_peak = 0;
  double latency_p50_s = 0.0;  ///< histogram-estimated
  double latency_p99_s = 0.0;
  double queue_wait_p50_ms = 0.0;  ///< admission-to-dequeue, merged shards
  double queue_wait_p99_ms = 0.0;

  [[nodiscard]] bool accounting_ok() const noexcept {
    return requests == served + shed + deadline_missed + internal_errors;
  }
  [[nodiscard]] std::string describe() const;
};

/// `queue_wait` is the merged snapshot of every shard's queue-wait
/// histogram (Server::merged_queue_wait()).
[[nodiscard]] ServeSummary summarize(const ServeTotals& totals,
                                     const ConcurrentHistogram& latency,
                                     const HistogramSnapshot& queue_wait);

/// Renders totals + latency + queue wait as a pftk-obs/1 bundle (source
/// "serve") with the canonical pftk_serve_* names
/// (obs/standard_metrics.hpp).
[[nodiscard]] obs::ObsBundle make_bundle(const ServeTotals& totals,
                                         const ConcurrentHistogram& latency,
                                         const HistogramSnapshot& queue_wait);

/// The BUSY `retry_ms=` backpressure hint: estimated queue drain time
/// from the shard's service-time EWMA, clamped to [1, 30000] so a cold
/// shard (no completed request yet, EWMA still 0) never tells clients
/// to retry in 0 ms and a wedged shard never quotes minutes.
[[nodiscard]] std::uint64_t busy_retry_hint_ms(double service_ewma_s,
                                               std::size_t queue_depth);

}  // namespace pftk::serve
