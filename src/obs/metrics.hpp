// Deterministic, near-zero-overhead metrics for the simulator and the
// campaign runner.
//
// The paper's validation needs the *internals* of every run — how many
// loss indications were triple-dup-ACK vs. timeout, how deep backoff
// went, where wall time was spent — and paper-scale campaigns run on a
// worker pool, so the counters must be contention-free. The design:
//
//   * definition phase — counters, gauges and fixed-bucket histograms
//     are registered once, single-threaded, yielding dense integer ids;
//   * recording phase — each worker thread owns a MetricsShard (a flat
//     array of slots, one cache-line-padded block per shard). Recording
//     is a plain add/store on the worker's own shard: no atomics, no
//     locks, no false sharing between workers;
//   * snapshot — shards merge in shard order (counters and histogram
//     buckets sum; gauges take the max), so the merged snapshot is a
//     deterministic function of what was recorded, independent of how
//     many shards the work was spread over.
//
// Histograms reject non-finite observations (counted, never silently
// dropped), matching the PR 3 quantile guards: a NaN sample is a bug to
// surface, not a value to bin. Bucket bounds are *inclusive* upper
// edges, Prometheus-style (`le`), so a value exactly on an edge lands in
// that edge's bucket.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pftk::obs {

/// JSONL/export schema tag; bump only on incompatible changes.
inline constexpr const char* kObsSchema = "pftk-obs/1";

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Dense handle into the registry; cheap to copy and store.
struct MetricId {
  std::uint32_t index = 0xffffffffu;
  [[nodiscard]] bool valid() const noexcept { return index != 0xffffffffu; }
};

/// One merged metric in a snapshot.
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< counter total or gauge max
  // Histogram-only fields.
  std::vector<double> bounds;          ///< inclusive upper edges (le)
  std::vector<std::uint64_t> buckets;  ///< counts per bound + final +inf bucket
  std::uint64_t count = 0;             ///< finite observations
  double sum = 0.0;                    ///< sum of finite observations
  std::uint64_t rejected = 0;          ///< non-finite observations refused
};

/// Deterministic merge result of every shard.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /// Folds `other` in by metric *name*: counters/histogram buckets sum,
  /// gauges take the max; metrics unknown to us are appended. Safe for
  /// self-merge (doubles every summed value). @throws
  /// std::invalid_argument when a shared name disagrees on kind/bounds.
  MetricsSnapshot& merge(const MetricsSnapshot& other);

  /// Pointer into metrics by name, nullptr when absent.
  [[nodiscard]] const MetricValue* find(const std::string& name) const noexcept;
};

class MetricsRegistry;

/// One worker's private slice of every registered metric. All recording
/// methods are plain stores on memory no other thread touches.
class MetricsShard {
 public:
  /// Counter += v (v >= 0; negative deltas are ignored).
  void add(MetricId id, double v = 1.0) noexcept {
    if (id.valid() && v > 0.0) {
      slots_[id.index].value += v;
    }
  }
  /// Gauge = v (last write on this shard wins; shards merge by max).
  void set(MetricId id, double v) noexcept {
    if (id.valid()) {
      slots_[id.index].value = v;
    }
  }
  /// Histogram observation; non-finite x is counted as rejected.
  void observe(MetricId id, double x) noexcept;

 private:
  friend class MetricsRegistry;

  struct Slot {
    double value = 0.0;            ///< counter accumulator / gauge value
    std::uint32_t first_bucket = 0;  ///< histogram: index into buckets_
    std::uint32_t histogram = 0xffffffffu;  ///< index into registry defs
    std::uint64_t count = 0;
    double sum = 0.0;
    std::uint64_t rejected = 0;
  };

  const MetricsRegistry* registry_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> buckets_;  ///< all histograms' buckets, flat
  /// Pad out the tail so consecutive shards in the registry's vector
  /// never share a cache line through their small members.
  char pad_[64] = {};
};

/// Owns metric definitions and per-worker shards.
//
// Lifecycle: register everything, then freeze(num_shards), then hand
// shard(i) to worker i. Registration after freeze() throws — the shard
// layout is fixed at freeze time.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// @throws std::invalid_argument on duplicate name or empty name;
  /// std::logic_error when already frozen.
  MetricId counter(std::string name, std::string help);
  MetricId gauge(std::string name, std::string help);
  /// `bounds` are strictly increasing, finite, inclusive upper edges; a
  /// final +inf bucket is implicit. @throws std::invalid_argument on
  /// unsorted/non-finite bounds.
  MetricId histogram(std::string name, std::string help, std::vector<double> bounds);

  /// Allocates `shards` identical shards (>= 1) and freezes definitions.
  /// May be called again later only with the same shard count intact —
  /// calling freeze twice throws.
  void freeze(std::size_t shards = 1);

  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Worker `i`'s shard. @throws std::out_of_range / std::logic_error.
  [[nodiscard]] MetricsShard& shard(std::size_t i);

  /// Merges every shard, in shard order, into one snapshot. Metrics
  /// appear in registration order. Callable while workers are quiescent.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  friend class MetricsShard;

  struct Def {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> bounds;     ///< histogram only
    std::uint32_t first_bucket = 0; ///< offset into each shard's bucket array
  };

  MetricId register_metric(std::string name, std::string help, MetricKind kind,
                           std::vector<double> bounds);

  std::vector<Def> defs_;
  std::size_t total_buckets_ = 0;
  std::vector<MetricsShard> shards_;
  bool frozen_ = false;
};

/// Aggregate checkpoint-journal I/O for a whole campaign.
struct CheckpointIoStats {
  std::uint64_t writes = 0;   ///< journal lines written
  std::uint64_t bytes = 0;    ///< bytes appended (incl. newlines)
  std::uint64_t flushes = 0;  ///< explicit flushes issued
  std::uint64_t replayed = 0; ///< items satisfied from an existing journal
};

}  // namespace pftk::obs
