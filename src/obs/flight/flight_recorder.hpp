// Always-on flight recorder: lock-free per-thread span tracing.
//
// The paper's validation decomposes *simulated* time (TD vs TO periods);
// this module decomposes the system's own *wall-clock* time the same
// way. Every hot subsystem (serve request path, campaign items, mc
// branch execution, trace-ingest chunks) carries compiled-in
// `PFTK_SPAN("name")` scopes that cost a single relaxed atomic load
// while the recorder is disarmed — the failpoint.hpp cost contract, CI
// `cmp`-enforced and bench-gated (<= 1.10x via span.record_disarmed).
//
// Armed (CLI `--trace-spans FILE`), each thread appends fixed-size
// 32-byte span records (interned name id, thread id, begin/end ns on the
// steady clock, one optional u64 arg) into its own lock-free SPSC ring
// with overwrite-oldest semantics: the producer never blocks, never
// allocates per span, and never contends with another thread. The drain
// path (quiesce time: after the command returns, threads joined) merges
// all rings into either Chrome/Perfetto trace-event JSON or a
// schema-versioned `pftk-spans/1` JSONL, both written through
// robust::atomic_write_file. `pftk prof` aggregates the JSONL into an
// inclusive/exclusive self-time table (obs/flight/prof.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pftk::obs::flight {

namespace detail {
/// The hot-path gate, mirroring robust::detail::g_armed: nonzero while
/// the recorder is armed. Every disarmed PFTK_SPAN site evaluates
/// exactly one relaxed load of this.
extern std::atomic<int> g_armed;
}  // namespace detail

/// True while spans are being recorded. Disarmed cost: one relaxed load.
inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/// One fixed-size ring slot. Timestamps are nanoseconds on the steady
/// clock since the recorder's arm epoch, so values stay small and two
/// spans from different threads share one timeline.
struct SpanRec {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t name_id = 0;
  std::uint32_t tid = 0;
  std::uint64_t arg = 0;
};
static_assert(sizeof(SpanRec) == 32, "span records are fixed-size ring slots");

/// One drained span with the name resolved (export/prof currency).
struct DrainedSpan {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;
};

/// Everything a drain produces: spans merged across rings, sorted by
/// (begin_ns, end_ns desc) so parents precede children, plus loss
/// accounting (overwrite-oldest drops are counted, never silent).
struct DrainedSpans {
  std::vector<DrainedSpan> spans;
  std::uint64_t dropped = 0;   ///< spans overwritten after their ring wrapped
  std::uint32_t threads = 0;   ///< rings that recorded at least one span
};

/// Process-wide recorder. arm() opens a recording epoch; per-thread
/// rings are created lazily on each thread's first recorded span and
/// retained until process exit (thread_local pointers stay valid across
/// disarm/clear/re-arm cycles).
class Recorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1 << 16;

  /// Opaque per-thread ring (defined in the .cpp; public only so the
  /// implementation can hold a thread_local pointer to it).
  struct ThreadRing;

  static Recorder& instance();

  /// Starts recording. The first arm() fixes the per-thread ring
  /// capacity (later calls reuse existing rings); re-arming after a
  /// disarm resets the epoch but keeps already-recorded spans unless
  /// clear() ran in between. Thread-safe.
  void arm(std::size_t ring_capacity = kDefaultRingCapacity);

  /// Stops recording (sites fall back to the single-load fast path).
  /// Recorded spans stay drainable.
  void disarm() noexcept;

  /// Drops every recorded span and the drop counters; rings and interned
  /// names are kept so re-arming is allocation-free.
  void clear();

  /// Interns a span name, returning its stable id (armed slow path).
  [[nodiscard]] std::uint32_t intern(std::string_view name);

  /// Nanoseconds since the arm epoch.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Converts an externally captured steady_clock stamp (e.g. a queued
  /// request's admission time) onto the recorder's timeline. Stamps
  /// taken before the epoch clamp to 0.
  [[nodiscard]] std::uint64_t to_ns(
      std::chrono::steady_clock::time_point tp) const noexcept;

  /// Records one completed span into the calling thread's ring. No-op
  /// while disarmed. The SPSC contract: only the owning thread writes
  /// its ring; the drain reads at quiesce time.
  void record(std::string_view name, std::uint64_t begin_ns,
              std::uint64_t end_ns, std::uint64_t arg = 0);

  /// Zero-length marker span at `now` — counter-style sites (the serve
  /// accounting identity markers) that have no meaningful duration.
  void record_marker(std::string_view name, std::uint64_t arg = 0) {
    if (!armed()) {
      return;
    }
    const std::uint64_t t = now_ns();
    record(name, t, t, arg);
  }

  /// Merges every ring into one sorted span list. Meant for quiesce
  /// points (command finished, threads joined); a concurrently recording
  /// thread is tolerated via a bounded re-read of its write cursor.
  [[nodiscard]] DrainedSpans drain() const;

  /// Total spans currently retained across rings (test observability).
  [[nodiscard]] std::uint64_t recorded() const;

 private:
  Recorder() = default;

  ThreadRing& ring_for_this_thread();

  mutable std::mutex mu_;  ///< ring registry + name table (slow paths only)
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::size_t ring_capacity_ = kDefaultRingCapacity;
  std::chrono::steady_clock::time_point epoch_{};
  bool epoch_set_ = false;
};

/// RAII span scope. Disarmed: the constructor is one relaxed load and
/// the destructor a register test — nothing else happens. Armed: stamps
/// begin on construction and appends one SpanRec on destruction (name
/// interning happens on the armed path only).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t arg = 0) noexcept {
    if (detail::g_armed.load(std::memory_order_relaxed) == 0) {
      return;
    }
    name_ = name;
    arg_ = arg;
    begin_ = Recorder::instance().now_ns();
    live_ = true;
  }

  ~Span() {
    if (live_) {
      finish();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches/overrides the span's u64 payload (e.g. a batch size known
  /// only mid-scope). No-op while the span is not recording.
  void set_arg(std::uint64_t arg) noexcept {
    if (live_) {
      arg_ = arg;
    }
  }

 private:
  void finish() noexcept;

  const char* name_ = nullptr;
  std::uint64_t begin_ = 0;
  std::uint64_t arg_ = 0;
  bool live_ = false;
};

#define PFTK_SPAN_CONCAT_INNER(a, b) a##b
#define PFTK_SPAN_CONCAT(a, b) PFTK_SPAN_CONCAT_INNER(a, b)
/// Scope-shaped span site: PFTK_SPAN("serve.eval_batch") or
/// PFTK_SPAN("trace.parse", image_bytes). Costs one relaxed load
/// when the recorder is disarmed.
#define PFTK_SPAN(...) \
  ::pftk::obs::flight::Span PFTK_SPAN_CONCAT(pftk_flight_span_, __LINE__){__VA_ARGS__}

}  // namespace pftk::obs::flight
