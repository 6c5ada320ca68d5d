// Discrete-event scheduler.
//
// A minimal, deterministic event queue: events at equal timestamps fire
// in scheduling order (FIFO tie-break via a monotone sequence number), so
// a given seed always reproduces the same run byte-for-byte.
//
// Hot-path storage is allocation-free: callbacks live in a slab of
// fixed-size slots recycled through a free list, each with small-buffer
// storage sized for every timer lambda in the simulator (callables that
// do not fit fall back to one heap allocation — none of the hot ones
// do). Scheduling an event therefore touches the slab and the binary
// heap only; there is no hash map and no per-event std::function
// allocation. Memory is O(peak concurrent events): the slab and heap
// retain their high-water capacity, exactly like the heap vector always
// did.
//
// Cancellation is lazy (the heap entry stays until popped) but bounded:
// when cancelled entries outnumber live ones the heap is compacted in
// place, so fault-heavy runs that schedule and cancel millions of timers
// keep the heap within a small factor of the live count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/event_loop_stats.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {

/// Opaque handle for cancelling a scheduled event. 0 is never issued,
/// so callers can use it as a "no timer armed" sentinel.
using EventId = std::uint64_t;

/// Move-only callable wrapper with inline small-buffer storage — the
/// slab cell of the event queue. Unlike std::function it never
/// type-erases through a copyable interface (timers are moved, not
/// copied) and only heap-allocates when the callable exceeds the inline
/// capacity.
class EventCallback {
 public:
  /// Large enough for every simulator timer: the biggest hot-path
  /// capture is Link's [this, item, arrival] at 40 bytes.
  static constexpr std::size_t kInlineCapacity = 48;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor): intended
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vtable_ = &kInlineVTable<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vtable_ = &kHeapVTable<D>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      vtable_->relocate(other.storage_, storage_);
      other.vtable_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) {
        vtable_->relocate(other.storage_, storage_);
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  /// Invokes the callable. Precondition: non-empty.
  void operator()() { vtable_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs dst from src, then destroys src.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineCapacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static D* inline_ptr(void* s) noexcept {
    return std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static D*& heap_ptr(void* s) noexcept {
    return *std::launder(reinterpret_cast<D**>(s));
  }

  template <typename D>
  static constexpr VTable kInlineVTable{
      [](void* s) { (*inline_ptr<D>(s))(); },
      [](void* src, void* dst) noexcept {
        D* from = inline_ptr<D>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) noexcept { inline_ptr<D>(s)->~D(); }};

  template <typename D>
  static constexpr VTable kHeapVTable{
      [](void* s) { (*heap_ptr<D>(s))(); },
      [](void* src, void* dst) noexcept { ::new (dst) D*(heap_ptr<D>(src)); },
      [](void* s) noexcept { delete heap_ptr<D>(s); }};

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const VTable* vtable_ = nullptr;
};

/// Time-ordered event queue driving a simulation run.
class EventQueue {
 public:
  /// Schedules `action` to run at absolute time `at` (>= now()).
  /// @throws std::invalid_argument if `at` precedes the current time.
  EventId schedule_at(Time at, EventCallback action);

  /// Schedules `action` to run after `delay` (>= 0) seconds.
  EventId schedule_in(Duration delay, EventCallback action);

  /// Cancels a pending event; cancelling an already-fired or unknown id
  /// is a harmless no-op (timers are routinely cancelled late).
  void cancel(EventId id) noexcept;

  /// Runs events until the queue empties or the next event is after
  /// `end_time`; the clock finishes at exactly `end_time`.
  void run_until(Time end_time);

  /// Runs every pending event (use only when the event graph terminates).
  void run_all();

  /// Installs a hook invoked after every `every` executed events (a
  /// watchdog's inspection point). The hook may throw to abort the run;
  /// the exception propagates out of run_until/run_all with the queue in
  /// a consistent state. Replaces any previous inspector.
  void set_inspector(std::function<void()> inspector, std::uint64_t every = 1);

  /// Removes the inspector hook.
  void clear_inspector() noexcept;

  /// Installs a tie-break chooser consulted whenever two or more live
  /// events share the next timestamp: it receives the number of tied
  /// events (>= 2, capped at kMaxTieFanout, in FIFO order) and returns
  /// the index of the event to run first; the rest keep their original
  /// FIFO order among themselves and each subsequent pop at the same
  /// timestamp is a fresh decision, so the chooser can realize any
  /// permutation of a tie group. Returning 0 reproduces the default
  /// FIFO order exactly. nullptr detaches; with no chooser installed the
  /// dispatch path is the unconditional FIFO fast path (one predictable
  /// branch, same cost contract as the stats sink). The model-checking
  /// explorer is the intended client — production runs never set this.
  void set_tie_breaker(std::function<std::size_t(std::size_t)> chooser);

  /// Largest tie group a chooser is offered in one decision; ties beyond
  /// the cap stay behind in FIFO order (a bounded-reordering budget, not
  /// a correctness limit).
  static constexpr std::size_t kMaxTieFanout = 16;

  /// Appends the timestamps of every pending (uncancelled) event to
  /// `out`, sorted ascending — a canonical view of the timer wheel for
  /// state digests. O(heap) — diagnostics/digest use only.
  void pending_times(std::vector<Time>& out) const;

  /// Attaches an observability sink (nullptr detaches). The queue then
  /// counts schedules/executions/cancellations and tracks heap/slab
  /// high-water marks into it — one predictable branch per operation,
  /// cheap enough for the hot path (the `pftk bench` obs gate enforces
  /// <= 10% dispatch overhead). The sink must outlive the attachment.
  void set_stats_sink(obs::EventLoopStats* sink) noexcept { stats_ = sink; }

  /// Current simulation clock.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Number of pending (uncancelled) events.
  [[nodiscard]] std::size_t pending() const noexcept { return live_count_; }

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Heap entries currently held, including lazily-cancelled ones — a
  /// memory diagnostic; stays within a small factor of pending().
  [[nodiscard]] std::size_t heap_size() const noexcept { return heap_.size(); }

  /// Callback slots currently allocated (live + free-listed): the
  /// slab's high-water mark of concurrent events.
  [[nodiscard]] std::size_t slab_size() const noexcept { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Entry {
    Time at;
    std::uint64_t seq;  ///< monotone schedule order: the FIFO tie-break
    std::uint32_t slot;
    std::uint32_t gen;  ///< slot generation at schedule time
    // Min-heap on (at, seq): seq grows monotonically, giving FIFO order
    // among same-time events — the determinism contract.
    bool operator>(const Entry& other) const noexcept {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };
  struct EntryAfter {
    bool operator()(const Entry& a, const Entry& b) const noexcept { return a > b; }
  };

  /// A slab cell: the callback plus free-list/liveness bookkeeping.
  struct Slot {
    EventCallback action;
    std::uint32_t gen = 0;         ///< bumped on every release
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };

  [[nodiscard]] bool entry_alive(const Entry& e) const noexcept {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  bool peek_next(Entry& out);
  void pop_heap_top();
  void compact_if_mostly_cancelled() noexcept;
  void run_one(const Entry& entry);
  void dispatch(const Entry& entry);
  void run_one_tied(const Entry& top);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  ///< std::push_heap/pop_heap with EntryAfter
  std::vector<Slot> slots_;  ///< slab indexed by Entry::slot
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_count_ = 0;
  std::size_t cancelled_in_heap_ = 0;
  std::function<void()> inspector_;
  std::uint64_t inspect_every_ = 1;
  obs::EventLoopStats* stats_ = nullptr;
  std::function<std::size_t(std::size_t)> tie_breaker_;
  std::vector<Entry> tie_buffer_;  ///< reused scratch for tie collection
};

}  // namespace pftk::sim
