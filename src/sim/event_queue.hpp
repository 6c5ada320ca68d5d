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
//
// Timers that restart constantly (a sender's RTO, a receiver's delayed
// ACK) are re-armable: a timer keeps one slab slot and its callback for
// the queue's lifetime and has at most one current heap entry, never
// later than its real (time, seq) key. Arming takes a fresh sequence
// number exactly as cancel + schedule_at would, but moves the entry only
// when the deadline gets earlier; an entry that reaches the top early is
// re-pushed at the real key before anything looks at it. Pop order is
// therefore the (time, seq) order of cancel + schedule_at, and a restart
// does no heap work.
//
// Packets in flight on a link are a delivery stream: keys pushed in
// (time, seq) order whose head alone sits in the heap, as a timer at its
// exact key; when it fires, the next key takes its place at the top. A
// push takes a fresh sequence number exactly as schedule_at would, so
// the heap merges the streams with every other event and pops the
// schedule_at order.
// Streams hold no callbacks per key: the stream's one callback finds the
// payload in its owner's ring (Link). A tie-breaker sees only the heap,
// so while one is installed streams take no keys.
//
// A run can be stopped from inside: request_stop() (from a callback, the
// inspector or a tie-breaker) makes run_until/run_all return once the
// event being dispatched has finished, with the clock at that event's
// time. The next run carries on in the order an uninterrupted run takes.
//
// A queue can go back in time: save() copies its state (clock, counters,
// heap, slab with the callbacks, timers, streams) and restore() puts it
// back, after which the queue runs on exactly as it did from there. The
// wiring (inspector, tie-breaker, stats sink) is not part of the state.
// The saved callbacks are this queue's, capturing the objects that
// scheduled them, so a state restores only into the queue it came from
// (the model checker resumes each branch from one; see mc/explorer.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/event_loop_stats.hpp"
#include "sim/fifo_ring.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {

/// Opaque handle for cancelling a scheduled event. 0 is never issued,
/// so callers can use it as a "no timer armed" sentinel.
using EventId = std::uint64_t;

/// Handle of a re-armable timer (EventQueue::add_timer).
using TimerId = std::uint32_t;

/// Handle of a delivery stream (EventQueue::add_stream).
using StreamId = std::uint32_t;

/// Callable wrapper with inline small-buffer storage — the slab cell of
/// the event queue. It only heap-allocates when the callable exceeds the
/// inline capacity. Moving relocates the callable; copying (a queue
/// snapshot) copies it, captures and all, and throws std::logic_error
/// for a callable that cannot be copied.
class EventCallback {
 public:
  /// Large enough for every simulator callback: the biggest is Link's
  /// one-shot delivery [this, item, arrival], 48 bytes for the shared
  /// bottleneck's tagged segments. Ordinary deliveries are stream keys
  /// and build no callback at all.
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

  EventCallback(const EventCallback& other) { copy_from(other); }

  EventCallback& operator=(const EventCallback& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }

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
    /// Copy-constructs dst from src; nullptr for a non-copyable callable.
    void (*copy)(const void* src, void* dst);
  };

  void copy_from(const EventCallback& other) {
    if (other.vtable_ == nullptr) {
      return;
    }
    if (other.vtable_->copy == nullptr) {
      throw std::logic_error("EventCallback: the callable cannot be copied");
    }
    other.vtable_->copy(other.storage_, storage_);
    vtable_ = other.vtable_;
  }

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
  static const D* inline_ptr(const void* s) noexcept {
    return std::launder(reinterpret_cast<const D*>(s));
  }
  template <typename D>
  static D*& heap_ptr(void* s) noexcept {
    return *std::launder(reinterpret_cast<D**>(s));
  }
  template <typename D>
  static D* heap_ptr(const void* s) noexcept {
    return *std::launder(reinterpret_cast<D* const*>(s));
  }

  using CopyFn = void (*)(const void*, void*);
  template <typename D>
  static constexpr CopyFn inline_copy() {
    if constexpr (std::is_copy_constructible_v<D>) {
      return [](const void* src, void* dst) { ::new (dst) D(*inline_ptr<D>(src)); };
    } else {
      return nullptr;
    }
  }
  template <typename D>
  static constexpr CopyFn heap_copy() {
    if constexpr (std::is_copy_constructible_v<D>) {
      return [](const void* src, void* dst) { ::new (dst) D*(new D(*heap_ptr<D>(src))); };
    } else {
      return nullptr;
    }
  }

  template <typename D>
  static constexpr VTable kInlineVTable{
      [](void* s) { (*inline_ptr<D>(s))(); },
      [](void* src, void* dst) noexcept {
        D* from = inline_ptr<D>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) noexcept { inline_ptr<D>(s)->~D(); },
      inline_copy<D>()};

  template <typename D>
  static constexpr VTable kHeapVTable{
      [](void* s) { (*heap_ptr<D>(s))(); },
      [](void* src, void* dst) noexcept { ::new (dst) D*(heap_ptr<D>(src)); },
      [](void* s) noexcept { delete heap_ptr<D>(s); },
      heap_copy<D>()};

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const VTable* vtable_ = nullptr;
};

/// Everything about an EventQueue that changes as it runs, in one struct
/// so that EventQueue::save copies every field: a field added here is
/// saved. Callers treat it as opaque.
struct EventQueueState {
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
    std::uint32_t gen = 0;  ///< bumped on release, or when a timer's entry goes stale
    std::uint32_t next_free = kNoSlot;
    std::uint32_t timer = kNoSlot;  ///< index into timers_, or kNoSlot
    bool live = false;              ///< pending event or armed timer
  };

  /// A re-armable timer. Its current heap entry is the one carrying its
  /// slot's generation; an entry superseded by an earlier deadline is
  /// made stale by bumping the generation, like a cancelled event.
  struct Timer {
    Time due = 0.0;          ///< real deadline while armed
    std::uint64_t seq = 0;   ///< real FIFO key while armed
    Time entry_at = 0.0;     ///< time of the current heap entry
    std::uint32_t slot = 0;
    std::uint32_t stream = kNoSlot;  ///< index into streams_, or kNoSlot
    bool queued = false;     ///< the current heap entry exists
  };

  struct Key {
    Time at = 0.0;
    std::uint64_t seq = 0;
  };

  /// A delivery stream: a timer armed at its oldest key whenever it has
  /// one. Keys are pushed in (time, seq) order, so the timer's entry is
  /// always exact and never goes stale.
  struct Stream {
    FifoRing<Key> keys;
    TimerId timer = 0;
  };

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  ///< std::push_heap/pop_heap with EntryAfter
  std::vector<Slot> slots_;  ///< slab indexed by Entry::slot
  std::vector<Timer> timers_;  ///< indexed by TimerId
  std::vector<Stream> streams_;  ///< indexed by StreamId
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_count_ = 0;
  std::size_t cancelled_in_heap_ = 0;
  std::size_t stream_keys_ = 0;  ///< keys held by all streams
  bool stop_requested_ = false;
  std::uint64_t inspect_countdown_ = 1;  ///< events until the next inspection
};

/// Time-ordered event queue driving a simulation run.
class EventQueue : private EventQueueState {
 public:
  /// The queue's state: clock, counters, heap, slab (callbacks included),
  /// timers and streams, but not the inspector, tie-breaker or stats sink.
  using State = EventQueueState;

  EventQueue() = default;
  // Callbacks capture the objects that scheduled them: a queue is not a
  // value (see save/restore for going back in time).
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Copies the queue's state into `out`, reusing its buffers.
  /// @throws std::logic_error if a pending callback cannot be copied.
  void save(State& out) const { out = *this; }

  /// Puts back a state that save() took from this queue; the queue then
  /// runs on exactly as it did from there. The state's callbacks are this
  /// queue's, so it restores only into the queue it came from.
  void restore(const State& state) { static_cast<State&>(*this) = state; }

  /// Schedules `action` to run at absolute time `at` (>= now()).
  /// @throws std::invalid_argument if `at` is not finite or precedes
  /// the current time.
  EventId schedule_at(Time at, EventCallback action);

  /// Schedules `action` to run after `delay` (finite, >= 0) seconds.
  EventId schedule_in(Duration delay, EventCallback action);

  /// Cancels a pending event; cancelling an already-fired or unknown id
  /// is a harmless no-op (timers are routinely cancelled late).
  void cancel(EventId id) noexcept;

  /// Creates a disarmed timer that runs `action` each time it fires. The
  /// timer holds one slab slot and the callback for the queue's lifetime.
  TimerId add_timer(EventCallback action);

  /// Arms `timer` to fire at `at`, replacing any pending deadline. This
  /// is cancel + schedule_at in every observable respect: a fresh
  /// sequence number, the same pop order and the same counters (a
  /// re-arm counts one cancel and one schedule). A timer is disarmed
  /// before its callback runs: the callback may re-arm it, and if the
  /// callback throws, the timer stays disarmed and can be armed again.
  /// @throws std::invalid_argument if `at` is not finite or precedes
  /// the current time.
  void arm_at(TimerId timer, Time at);

  /// Arms `timer` to fire after `delay` (finite, >= 0) seconds.
  void arm_in(TimerId timer, Duration delay);

  /// Disarms `timer`, exactly as cancel does an event; a no-op when the
  /// timer is not armed.
  void disarm(TimerId timer) noexcept;

  /// Whether `timer` is armed (counted by pending()).
  [[nodiscard]] bool armed(TimerId timer) const noexcept {
    return slots_[timers_[timer].slot].live;
  }

  /// Creates an empty delivery stream that runs `on_head` once per key,
  /// in key order. The stream holds one slab slot and the callback for
  /// the queue's lifetime; its keys live in a ring that is allocated on
  /// the first push.
  StreamId add_stream(EventCallback on_head);

  /// Queues a key at `at` on `stream`. This is schedule_at in every
  /// observable respect: a fresh sequence number, the same pop order,
  /// one schedule counted, one more pending(). The key is popped, and
  /// the next one armed, before `on_head` runs, so a throwing callback
  /// leaves the rest of the stream to fire in order.
  /// @throws std::invalid_argument if `at` is not finite or precedes
  /// the current time.
  /// @throws std::logic_error if `at` precedes the stream's last key, or
  /// a tie-breaker is installed.
  void push(StreamId stream, Time at);

  /// Runs events until the queue empties or the next event is after
  /// `end_time`; the clock finishes at exactly `end_time`. A stop request
  /// ends the run early, with the clock left where it is.
  /// @throws std::invalid_argument if `end_time` is NaN.
  void run_until(Time end_time);

  /// Runs every pending event (use only when the event graph terminates),
  /// or until a stop request.
  void run_all();

  /// Asks the current run to return once the event being dispatched has
  /// finished (its callback, then the inspector). now() stays at that
  /// event's time, and pending events stay queued for the next run. The
  /// request is consumed by the return it causes; one made while no run
  /// is in progress (or left behind by a run that threw) stops the next
  /// run before its first event.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Installs a hook invoked after every `every` executed events (a
  /// watchdog's inspection point). The hook may request a stop, or throw
  /// to abort the run; the exception propagates out of run_until/run_all
  /// with the queue in a consistent state. Replaces any previous
  /// inspector.
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
  /// A stream's equal-time successors are not in the heap, so no chooser
  /// can order them: delivery streams take no keys while one is set.
  /// @throws std::logic_error if `chooser` is non-empty and any stream
  /// holds a key.
  void set_tie_breaker(std::function<std::size_t(std::size_t)> chooser);

  /// Whether a tie-break chooser is installed (streams then take no keys).
  [[nodiscard]] bool has_tie_breaker() const noexcept {
    return static_cast<bool>(tie_breaker_);
  }

  /// Largest tie group a chooser is offered in one decision; ties beyond
  /// the cap stay behind in FIFO order (a bounded-reordering budget, not
  /// a correctness limit).
  static constexpr std::size_t kMaxTieFanout = 16;

  /// Whether two or more pending events share the earliest time, so that
  /// the next dispatch consults an installed tie-breaker. O(pending).
  [[nodiscard]] bool next_is_tied() const noexcept;

  /// Appends the timestamps of every pending (uncancelled) event, armed
  /// timer and stream key to `out`, sorted ascending — a canonical view
  /// of the timer wheel for state digests, the same as if every key had
  /// been scheduled with schedule_at. O(pending) — diagnostics/digest
  /// use only.
  void pending_times(std::vector<Time>& out) const;

  /// Attaches an observability sink (nullptr detaches). The queue then
  /// counts schedules/executions/cancellations and tracks heap/slab
  /// high-water marks into it — one predictable branch per operation,
  /// cheap enough for the hot path (the `pftk bench` obs gate enforces
  /// <= 10% dispatch overhead). The sink must outlive the attachment.
  void set_stats_sink(obs::EventLoopStats* sink) noexcept { stats_ = sink; }

  /// Current simulation clock.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Number of pending (uncancelled) events, armed timers and stream
  /// keys included.
  [[nodiscard]] std::size_t pending() const noexcept { return live_count_; }

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Heap entries currently held, including lazily-cancelled ones — a
  /// memory diagnostic; a stream has one entry however many keys it
  /// holds.
  [[nodiscard]] std::size_t heap_size() const noexcept { return heap_.size(); }

  /// Callback slots currently allocated (live + free-listed): the
  /// slab's high-water mark of concurrent events.
  [[nodiscard]] std::size_t slab_size() const noexcept { return slots_.size(); }

 private:
  [[nodiscard]] bool entry_alive(const Entry& e) const noexcept {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }
  /// entry_alive's negation, for entries leaving the heap: a timer whose
  /// current entry this is has none afterwards.
  bool drop_if_dead(const Entry& e) noexcept;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  void note_scheduled() noexcept;

  bool peek_next(Entry& out);
  void pop_heap_top();
  void push_heap_entry(const Entry& entry);
  void compact_if_mostly_cancelled() noexcept;
  void run_one(const Entry& entry);
  void dispatch(const Entry& entry);
  void fire_timer(std::uint32_t slot);
  void pop_stream_key(Timer& timer);
  void replace_heap_top(const Entry& entry) noexcept;
  void run_one_tied(const Entry& top);

  // Wiring, not saved.
  std::function<void()> inspector_;
  std::uint64_t inspect_every_ = 1;
  obs::EventLoopStats* stats_ = nullptr;
  std::function<std::size_t(std::size_t)> tie_breaker_;
  std::vector<Entry> tie_buffer_;  ///< reused scratch for tie collection
};

}  // namespace pftk::sim
