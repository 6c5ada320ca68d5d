#include "obs/flight/flight_recorder.hpp"

#include <algorithm>

#if defined(__SANITIZE_ADDRESS__)
#define PFTK_FLIGHT_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PFTK_FLIGHT_LSAN 1
#endif
#endif
#ifdef PFTK_FLIGHT_LSAN
#include <sanitizer/lsan_interface.h>
#endif

namespace pftk::obs::flight {

namespace detail {
std::atomic<int> g_armed{0};
}  // namespace detail

/// SPSC ring: the owning thread is the only writer; written_ is a
/// monotonically increasing span count published with release order so
/// a drain that reads it (acquire) sees every slot it covers. Slots are
/// overwritten modulo capacity — overwrite-oldest, never blocking.
struct Recorder::ThreadRing {
  explicit ThreadRing(std::size_t capacity, std::uint32_t tid)
      : slots(capacity), tid(tid) {}

  void push(const SpanRec& rec) noexcept {
    const std::uint64_t n = written_.load(std::memory_order_relaxed);
    slots[static_cast<std::size_t>(n % slots.size())] = rec;
    written_.store(n + 1, std::memory_order_release);
  }

  std::vector<SpanRec> slots;
  std::uint32_t tid;
  std::atomic<std::uint64_t> written_{0};
};

namespace {
/// Each thread caches its ring pointer after the first armed record;
/// the ring itself lives in the Recorder's registry until process exit,
/// so the pointer stays valid even across disarm/clear cycles and after
/// other threads detach.
thread_local Recorder::ThreadRing* t_ring = nullptr;

/// Armed-path name lookup without touching the registry mutex: each
/// thread memoizes name -> id, so the lock is only taken the first time
/// a thread sees a given span name.
thread_local std::unordered_map<std::string, std::uint32_t>* t_name_cache =
    nullptr;

std::uint32_t cached_intern(Recorder& rec, std::string_view name) {
  if (t_name_cache == nullptr) {
    // Leaked deliberately: a thread may record from code that runs
    // while its thread_local and static objects are being destroyed at
    // thread or process exit, and a destroyed thread_local map would
    // turn those late records into use-after-free. The leak is one map
    // per recording thread, bounded and intentional — told to LSan so
    // sanitized tier-1 runs stay clean.
    t_name_cache = new std::unordered_map<std::string, std::uint32_t>();
#ifdef PFTK_FLIGHT_LSAN
    __lsan_ignore_object(t_name_cache);
#endif
  }
  auto it = t_name_cache->find(std::string(name));
  if (it != t_name_cache->end()) {
    return it->second;
  }
  const std::uint32_t id = rec.intern(name);
  t_name_cache->emplace(std::string(name), id);
  return id;
}
}  // namespace

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

void Recorder::arm(std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rings_.empty() && ring_capacity > 0) {
    ring_capacity_ = ring_capacity;
  }
  if (!epoch_set_) {
    epoch_ = std::chrono::steady_clock::now();
    epoch_set_ = true;
  }
  detail::g_armed.store(1, std::memory_order_release);
}

void Recorder::disarm() noexcept {
  detail::g_armed.store(0, std::memory_order_release);
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    ring->written_.store(0, std::memory_order_release);
  }
  epoch_set_ = false;
}

std::uint32_t Recorder::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

std::uint64_t Recorder::now_ns() const noexcept {
  return to_ns(std::chrono::steady_clock::now());
}

std::uint64_t Recorder::to_ns(
    std::chrono::steady_clock::time_point tp) const noexcept {
  if (tp <= epoch_) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
          .count());
}

Recorder::ThreadRing& Recorder::ring_for_this_thread() {
  if (t_ring != nullptr) {
    return *t_ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto tid = static_cast<std::uint32_t>(rings_.size() + 1);
  rings_.push_back(std::make_unique<ThreadRing>(ring_capacity_, tid));
  t_ring = rings_.back().get();
  return *t_ring;
}

void Recorder::record(std::string_view name, std::uint64_t begin_ns,
                      std::uint64_t end_ns, std::uint64_t arg) {
  if (!armed()) {
    return;
  }
  SpanRec rec;
  rec.begin_ns = begin_ns;
  rec.end_ns = end_ns;
  rec.name_id = cached_intern(*this, name);
  rec.arg = arg;
  ThreadRing& ring = ring_for_this_thread();
  rec.tid = ring.tid;
  ring.push(rec);
}

DrainedSpans Recorder::drain() const {
  DrainedSpans out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    // Seqlock-lite: re-read the cursor until a stable window is seen.
    // At quiesce time (the intended drain point) this converges on the
    // first pass; a still-writing producer only costs a few retries and
    // in the worst case the last few slots of a racing ring.
    std::uint64_t written = ring->written_.load(std::memory_order_acquire);
    const std::size_t cap = ring->slots.size();
    std::vector<SpanRec> copied;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint64_t live = std::min<std::uint64_t>(written, cap);
      copied.clear();
      copied.reserve(static_cast<std::size_t>(live));
      const std::uint64_t first = written - live;
      for (std::uint64_t i = 0; i < live; ++i) {
        copied.push_back(
            ring->slots[static_cast<std::size_t>((first + i) % cap)]);
      }
      const std::uint64_t after = ring->written_.load(std::memory_order_acquire);
      if (after == written) {
        break;
      }
      written = after;
    }
    if (written == 0) {
      continue;
    }
    ++out.threads;
    if (written > cap) {
      out.dropped += written - cap;
    }
    for (const SpanRec& rec : copied) {
      DrainedSpan span;
      span.name = rec.name_id < names_.size() ? names_[rec.name_id]
                                              : std::string("<unknown>");
      span.tid = rec.tid;
      span.begin_ns = rec.begin_ns;
      span.end_ns = rec.end_ns;
      span.arg = rec.arg;
      out.spans.push_back(std::move(span));
    }
  }
  // Parents sort before their children: earlier begin first, and at
  // equal begin the longer (enclosing) span first.
  std::sort(out.spans.begin(), out.spans.end(),
            [](const DrainedSpan& a, const DrainedSpan& b) {
              if (a.begin_ns != b.begin_ns) {
                return a.begin_ns < b.begin_ns;
              }
              if (a.end_ns != b.end_ns) {
                return a.end_ns > b.end_ns;
              }
              return a.tid < b.tid;
            });
  return out;
}

std::uint64_t Recorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t written =
        ring->written_.load(std::memory_order_acquire);
    total += std::min<std::uint64_t>(written, ring->slots.size());
  }
  return total;
}

void Span::finish() noexcept {
  live_ = false;
  // The recorder may have been disarmed mid-scope; record() re-checks
  // and drops the span in that case rather than recording a torn one.
  Recorder& rec = Recorder::instance();
  rec.record(name_, begin_, rec.now_ns(), arg_);
}

}  // namespace pftk::obs::flight
