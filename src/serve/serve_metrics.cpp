#include "serve/serve_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/standard_metrics.hpp"

namespace pftk::serve {

namespace {

/// fetch_add that clamps at UINT64_MAX instead of wrapping to 0 — a
/// wrapped bucket count would silently break every identity and
/// quantile derived from it.
void saturating_add(std::atomic<std::uint64_t>& a, std::uint64_t n) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur != UINT64_MAX) {
    const std::uint64_t next =
        n > UINT64_MAX - cur ? UINT64_MAX : cur + n;
    if (a.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

std::uint64_t saturating_sum(std::uint64_t a, std::uint64_t b) noexcept {
  return b > UINT64_MAX - a ? UINT64_MAX : a + b;
}

/// Shared quantile walk over plain bucket counts (the atomic histogram
/// and the merged snapshot must agree on the estimate by construction).
double quantile_from_counts(const std::vector<double>& bounds,
                            const std::vector<std::uint64_t>& counts,
                            double q) {
  std::uint64_t total = 0;
  for (const auto c : counts) {
    total = saturating_sum(total, c);
  }
  if (total == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t next = saturating_sum(cum, counts[i]);
    if (static_cast<double>(next) >= target && counts[i] > 0) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      // The +inf bucket has no width; clamp its estimate to the last
      // finite edge rather than inventing an upper bound.
      if (i >= bounds.size()) {
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double hi = bounds[i];
      const double into =
          (target - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
    cum = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (bounds != other.bounds || buckets.size() != other.buckets.size()) {
    throw std::invalid_argument(
        "HistogramSnapshot::merge: bucket layouts differ");
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = saturating_sum(buckets[i], other.buckets[i]);
  }
  count = saturating_sum(count, other.count);
  sum += other.sum;
  rejected = saturating_sum(rejected, other.rejected);
}

double HistogramSnapshot::quantile(double q) const {
  return quantile_from_counts(bounds, buckets, q);
}

ConcurrentHistogram::ConcurrentHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]) ||
        (i > 0 && !(bounds_[i] > bounds_[i - 1]))) {
      throw std::invalid_argument(
          "ConcurrentHistogram: bounds must be finite and strictly increasing");
    }
  }
}

void ConcurrentHistogram::observe_n(double x, std::uint64_t n) noexcept {
  if (n == 0) {
    return;
  }
  if (!std::isfinite(x)) {
    saturating_add(rejected_, n);
    return;
  }
  // Inclusive upper edges, like the obs registry: x == edge lands in
  // that edge's bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  saturating_add(buckets_[idx], n);
  saturating_add(count_, n);
  sum_.fetch_add(x * static_cast<double>(n), std::memory_order_relaxed);
}

std::vector<std::uint64_t> ConcurrentHistogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double ConcurrentHistogram::quantile(double q) const {
  return quantile_from_counts(bounds_, bucket_counts(), q);
}

HistogramSnapshot ConcurrentHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets = bucket_counts();
  snap.count = count();
  snap.sum = sum();
  snap.rejected = rejected();
  return snap;
}

std::vector<double> default_latency_bounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
          2.5e-2, 5e-2, 0.1,  0.25, 0.5,    1.0,  2.5};
}

std::vector<double> default_queue_wait_bounds_ms() {
  return {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
          2.5,  5.0,   10.0, 25.0, 50.0, 100.0, 250.0, 1000.0};
}

ServeSummary summarize(const ServeTotals& totals,
                       const ConcurrentHistogram& latency,
                       const HistogramSnapshot& queue_wait) {
  ServeSummary s;
  s.requests = totals.requests.load();
  s.served = totals.served.load();
  s.shed = totals.shed.load();
  s.deadline_missed = totals.deadline_missed.load();
  s.internal_errors = totals.internal_errors.load();
  s.protocol_errors = totals.protocol_errors.load();
  s.oversized = totals.oversized.load();
  s.pings = totals.pings.load();
  s.connections = totals.connections.load();
  s.rejected_connections = totals.rejected_connections.load();
  s.disconnects = totals.disconnects.load();
  s.batches = totals.batches.load();
  s.batched_requests = totals.batched_requests.load();
  s.calib_chunks = totals.calib_chunks.load();
  s.queue_peak = totals.queue_peak.load();
  s.latency_p50_s = latency.quantile(0.50);
  s.latency_p99_s = latency.quantile(0.99);
  s.queue_wait_p50_ms = queue_wait.quantile(0.50);
  s.queue_wait_p99_ms = queue_wait.quantile(0.99);
  return s;
}

std::string ServeSummary::describe() const {
  std::ostringstream os;
  os << "requests " << requests << " = served " << served << " + shed " << shed
     << " + deadline-missed " << deadline_missed << " + internal "
     << internal_errors << (accounting_ok() ? "" : "  [ACCOUNTING MISMATCH]")
     << "\n"
     << "protocol errors " << protocol_errors << ", oversized " << oversized
     << ", pings " << pings << ", connections " << connections << " (rejected "
     << rejected_connections << ", lost " << disconnects << ")\n"
     << "batches " << batches << " covering " << batched_requests
     << " request(s), calib chunks " << calib_chunks << ", queue peak "
     << queue_peak << "\n"
     << "latency p50 " << latency_p50_s * 1e3 << " ms, p99 "
     << latency_p99_s * 1e3 << " ms (histogram estimate)\n"
     << "queue wait p50 " << queue_wait_p50_ms << " ms, p99 "
     << queue_wait_p99_ms << " ms (merged shards, histogram estimate)";
  return os.str();
}

obs::ObsBundle make_bundle(const ServeTotals& totals,
                           const ConcurrentHistogram& latency,
                           const HistogramSnapshot& queue_wait) {
  obs::MetricsRegistry registry;
  const auto met = obs::ServeMetrics::register_on(registry, latency.bounds(),
                                                  queue_wait.bounds);
  registry.freeze(1);
  auto& shard = registry.shard(0);
  const auto add = [&shard](obs::MetricId id,
                            const std::atomic<std::uint64_t>& v) {
    shard.add(id, static_cast<double>(v.load(std::memory_order_relaxed)));
  };
  add(met.requests, totals.requests);
  add(met.served, totals.served);
  add(met.shed, totals.shed);
  add(met.deadline_missed, totals.deadline_missed);
  add(met.internal_errors, totals.internal_errors);
  add(met.protocol_errors, totals.protocol_errors);
  add(met.oversized, totals.oversized);
  add(met.pings, totals.pings);
  add(met.connections, totals.connections);
  add(met.rejected_connections, totals.rejected_connections);
  add(met.disconnects, totals.disconnects);
  add(met.batches, totals.batches);
  add(met.batched_requests, totals.batched_requests);
  add(met.calib_chunks, totals.calib_chunks);
  add(met.metrics_flushes, totals.metrics_flushes);
  shard.set(met.queue_peak,
            static_cast<double>(totals.queue_peak.load(std::memory_order_relaxed)));

  obs::ObsBundle bundle;
  bundle.source = "serve";
  bundle.metrics = registry.snapshot();
  // Splice the concurrent histogram into the snapshot slot the registry
  // reserved for it: same name, same bounds, exact bucket counts.
  for (auto& metric : bundle.metrics.metrics) {
    if (metric.name == "pftk_serve_latency_seconds") {
      metric.buckets = latency.bucket_counts();
      metric.count = latency.count();
      metric.sum = latency.sum();
      metric.rejected = latency.rejected();
    } else if (metric.name == "pftk_serve_queue_wait_ms") {
      metric.buckets = queue_wait.buckets;
      metric.count = queue_wait.count;
      metric.sum = queue_wait.sum;
      metric.rejected = queue_wait.rejected;
    }
  }
  return bundle;
}

std::uint64_t busy_retry_hint_ms(double service_ewma_s,
                                 std::size_t queue_depth) {
  double est_ms = service_ewma_s * static_cast<double>(queue_depth) * 1e3;
  // NaN (poisoned EWMA) falls to the floor; ±inf is handled by the
  // clamp itself, so an overflowed estimate still quotes the cap.
  if (std::isnan(est_ms)) {
    est_ms = 0.0;
  }
  return static_cast<std::uint64_t>(std::clamp(est_ms, 1.0, 30000.0));
}

}  // namespace pftk::serve
