#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace pftk::sim {

namespace {

// EventIds pack (generation, slot + 1); the +1 keeps id 0 un-issuable so
// callers can use 0 as a "no timer armed" sentinel.
constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
  return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
}

// Event times (and delays) must be finite and at least `floor`: now, or
// 0 for a delay. Written so that NaN fails too: a NaN time would run at
// once and set now() to NaN, after which no time is in the past.
void check_time(double t, double floor, const char* who, const char* too_low) {
  if (!(t >= floor && t <= std::numeric_limits<double>::max())) {
    throw std::invalid_argument(std::string(who) +
                                (std::isfinite(t) ? too_low : ": not finite"));
  }
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.action.reset();
  s.live = false;
  ++s.gen;  // invalidates every outstanding EventId/heap entry for the slot
  s.next_free = free_head_;
  free_head_ = slot;
  --live_count_;
}

void EventQueue::note_scheduled() noexcept {
  if (stats_ != nullptr) {
    ++stats_->scheduled;
    if (heap_.size() > stats_->heap_peak) {
      stats_->heap_peak = heap_.size();
    }
    if (slots_.size() > stats_->slab_peak) {
      stats_->slab_peak = slots_.size();
    }
  }
}

void EventQueue::push_heap_entry(const Entry& entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

EventId EventQueue::schedule_at(Time at, EventCallback action) {
  check_time(at, now_, "EventQueue::schedule_at", ": time in the past");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.live = true;
  push_heap_entry(Entry{at, next_seq_++, slot, s.gen});
  ++live_count_;
  note_scheduled();
  return make_id(slot, s.gen);
}

EventId EventQueue::schedule_in(Duration delay, EventCallback action) {
  check_time(delay, 0.0, "EventQueue::schedule_in", ": negative delay");
  return schedule_at(now_ + delay, std::move(action));
}

void EventQueue::cancel(EventId id) noexcept {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) {
    return;  // never issued (includes the id-0 sentinel)
  }
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) {
    return;  // already fired, already cancelled, or slot since reused
  }
  release_slot(slot);
  ++cancelled_in_heap_;
  if (stats_ != nullptr) {
    ++stats_->cancelled;
  }
  compact_if_mostly_cancelled();
}

TimerId EventQueue::add_timer(EventCallback action) {
  const std::uint32_t slot = acquire_slot();
  const auto id = static_cast<TimerId>(timers_.size());
  timers_.push_back(Timer{.slot = slot});
  slots_[slot].action = std::move(action);
  slots_[slot].timer = id;
  return id;
}

void EventQueue::arm_at(TimerId timer, Time at) {
  check_time(at, now_, "EventQueue::arm_at", ": time in the past");
  Timer& t = timers_[timer];
  Slot& s = slots_[t.slot];
  if (s.live) {
    if (stats_ != nullptr) {
      ++stats_->cancelled;  // a re-arm is a cancel plus a schedule
    }
  } else {
    s.live = true;
    ++live_count_;
    if (t.queued) {
      --cancelled_in_heap_;  // the disarmed entry is current again
    }
  }
  t.due = at;
  t.seq = next_seq_++;
  // A current entry no later than the new key can stay: it re-pushes
  // itself at (due, seq) when it reaches the top. An earlier deadline
  // needs an entry of its own; the old one goes stale.
  const bool stale = t.queued && at < t.entry_at;
  if (!t.queued || stale) {
    if (stale) {
      ++s.gen;
      ++cancelled_in_heap_;
    }
    push_heap_entry(Entry{at, t.seq, t.slot, s.gen});
    t.entry_at = at;
    t.queued = true;
  }
  note_scheduled();
  if (stale) {
    compact_if_mostly_cancelled();
  }
}

StreamId EventQueue::add_stream(EventCallback on_head) {
  const TimerId timer = add_timer(std::move(on_head));
  const auto id = static_cast<StreamId>(streams_.size());
  timers_[timer].stream = id;
  streams_.emplace_back().timer = timer;
  return id;
}

void EventQueue::push(StreamId stream, Time at) {
  check_time(at, now_, "EventQueue::push", ": time in the past");
  if (tie_breaker_) {
    throw std::logic_error("EventQueue::push: a tie-breaker is installed");
  }
  Stream& st = streams_[stream];
  if (!st.keys.empty() && at < st.keys.back().at) {
    throw std::logic_error("EventQueue::push: key earlier than the stream's last");
  }
  const Key key{at, next_seq_++};
  st.keys.push_back(key);
  ++stream_keys_;
  ++live_count_;
  if (st.keys.size() == 1) {
    // A new head: arm the stream's timer at exactly its key.
    Timer& t = timers_[st.timer];
    Slot& s = slots_[t.slot];
    s.live = true;
    t.due = key.at;
    t.seq = key.seq;
    t.entry_at = key.at;
    t.queued = true;
    push_heap_entry(Entry{key.at, key.seq, t.slot, s.gen});
  }
  note_scheduled();
}

void EventQueue::arm_in(TimerId timer, Duration delay) {
  check_time(delay, 0.0, "EventQueue::arm_in", ": negative delay");
  arm_at(timer, now_ + delay);
}

void EventQueue::disarm(TimerId timer) noexcept {
  Slot& s = slots_[timers_[timer].slot];
  if (!s.live) {
    return;
  }
  s.live = false;
  --live_count_;
  ++cancelled_in_heap_;  // an armed timer's current entry is in the heap
  if (stats_ != nullptr) {
    ++stats_->cancelled;
  }
  compact_if_mostly_cancelled();
}

bool EventQueue::drop_if_dead(const Entry& e) noexcept {
  Slot& s = slots_[e.slot];
  if (s.gen != e.gen) {
    return true;  // cancelled, fired or stale: the slot has moved on
  }
  if (s.live) {
    return false;
  }
  if (s.timer != kNoSlot) {
    timers_[s.timer].queued = false;  // a disarmed timer's current entry
  }
  return true;
}

void EventQueue::compact_if_mostly_cancelled() noexcept {
  // Rebuild only when cancelled entries dominate, so the amortized cost
  // per cancel stays O(log n) while the heap stays O(live events).
  if (heap_.size() < 64 || cancelled_in_heap_ * 2 <= heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return drop_if_dead(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  cancelled_in_heap_ = 0;
  if (stats_ != nullptr) {
    ++stats_->compactions;
  }
}

bool EventQueue::peek_next(Entry& out) {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    // Skip dead entries: cancelled, fired and recycled, stale or disarmed.
    if (drop_if_dead(top)) {
      pop_heap_top();
      if (cancelled_in_heap_ > 0) {
        --cancelled_in_heap_;
      }
      continue;
    }
    // A timer re-armed later than its entry: move the entry to the real
    // key, so callers only ever see exact (time, seq) keys.
    if (const std::uint32_t timer = slots_[top.slot].timer; timer != kNoSlot) {
      Timer& t = timers_[timer];
      if (top.seq != t.seq) {
        pop_heap_top();
        push_heap_entry(Entry{t.due, t.seq, top.slot, top.gen});
        t.entry_at = t.due;
        continue;
      }
    }
    out = top;
    return true;
  }
  return false;
}

void EventQueue::pop_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
  heap_.pop_back();
}

void EventQueue::dispatch(const Entry& entry) {
  now_ = entry.at;
  ++executed_;
  if (stats_ != nullptr) {
    ++stats_->executed;
  }
  if (slots_[entry.slot].timer == kNoSlot) {
    // Move the action out and free the slot before invoking: the action
    // may itself schedule events (reusing this slot is fine — the
    // generation bump has already invalidated the old id) or cancel its
    // own id (a harmless no-op for the same reason).
    EventCallback action = std::move(slots_[entry.slot].action);
    release_slot(entry.slot);
    action();
  } else {
    fire_timer(entry.slot);
  }
  if (inspector_ && --inspect_countdown_ == 0) {
    inspect_countdown_ = inspect_every_;
    inspector_();
  }
}

void EventQueue::fire_timer(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // A timer is disarmed here; a stream's key was popped by run_one.
  if (Timer& t = timers_[s.timer]; t.stream == kNoSlot) {
    s.live = false;
    t.queued = false;
    --live_count_;
  }
  // Run the callback from outside the slab, which it may grow (moving
  // every slot), and hand it back to the timer even if it throws.
  struct Running {
    std::vector<Slot>& slots;
    std::uint32_t slot;
    EventCallback action;
    ~Running() { slots[slot].action = std::move(action); }
  } running{slots_, slot, std::move(s.action)};
  running.action();
}

void EventQueue::pop_stream_key(Timer& timer) {
  Slot& slot = slots_[timer.slot];
  FifoRing<Key>& keys = streams_[timer.stream].keys;
  keys.pop_front();
  --stream_keys_;
  --live_count_;
  if (keys.empty()) {
    slot.live = false;
    timer.queued = false;
    pop_heap_top();
    return;
  }
  // Re-arm at the next key, which was taken at its push (no fresh seq)
  // and is later than the one that fired: it takes over the heap's top.
  const Key next = keys.front();
  timer.due = next.at;
  timer.seq = next.seq;
  timer.entry_at = next.at;
  replace_heap_top(Entry{next.at, next.seq, timer.slot, slot.gen});
}

void EventQueue::replace_heap_top(const Entry& entry) noexcept {
  // Sift down from the root in std::push_heap's layout (the children of
  // i at 2i + 1 and 2i + 2): the earlier child moves up until `entry`
  // is no later than both.
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && heap_[child] > heap_[child + 1]) {
      ++child;
    }
    if (!(entry > heap_[child])) {
      break;
    }
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = entry;
}

void EventQueue::run_one(const Entry& entry) {
  // A stream head (never seen by run_one_tied: streams hold no keys
  // while a tie-breaker is installed) hands the top to its next key.
  if (const std::uint32_t timer = slots_[entry.slot].timer;
      timer != kNoSlot && timers_[timer].stream != kNoSlot) {
    pop_stream_key(timers_[timer]);
  } else {
    pop_heap_top();
  }
  dispatch(entry);
}

void EventQueue::run_one_tied(const Entry& top) {
  // Collect every live event tied at the top timestamp (bounded by
  // kMaxTieFanout), in FIFO order: the heap pops them smallest-seq
  // first. Entries are PODs — the slab cells stay live while popped.
  tie_buffer_.clear();
  pop_heap_top();
  tie_buffer_.push_back(top);
  Entry next{};
  while (tie_buffer_.size() < kMaxTieFanout && peek_next(next) && next.at == top.at) {
    pop_heap_top();
    tie_buffer_.push_back(next);
  }
  std::size_t chosen = 0;
  if (tie_buffer_.size() > 1) {
    chosen = tie_breaker_(tie_buffer_.size());
    if (chosen >= tie_buffer_.size()) {
      chosen = tie_buffer_.size() - 1;
    }
  }
  // Re-push the losers with their original seqs: FIFO order among them
  // is preserved, and each later pop at this timestamp is a fresh
  // tie-break decision (so a chooser can realize any permutation).
  for (std::size_t i = 0; i < tie_buffer_.size(); ++i) {
    if (i != chosen) {
      push_heap_entry(tie_buffer_[i]);
    }
  }
  dispatch(tie_buffer_[chosen]);
}

void EventQueue::run_until(Time end_time) {
  if (std::isnan(end_time)) {
    throw std::invalid_argument("EventQueue::run_until: end time is NaN");
  }
  Entry entry{};
  while (!stop_requested_ && peek_next(entry) && entry.at <= end_time) {
    if (tie_breaker_) {
      run_one_tied(entry);
    } else {
      run_one(entry);
    }
  }
  if (stop_requested_) {
    stop_requested_ = false;
    return;  // the clock stays at the last dispatched event
  }
  if (now_ < end_time) {
    now_ = end_time;
  }
}

void EventQueue::run_all() {
  Entry entry{};
  while (!stop_requested_ && peek_next(entry)) {
    if (tie_breaker_) {
      run_one_tied(entry);
    } else {
      run_one(entry);
    }
  }
  stop_requested_ = false;
}

void EventQueue::set_inspector(std::function<void()> inspector, std::uint64_t every) {
  if (every == 0) {
    throw std::invalid_argument("EventQueue::set_inspector: every must be >= 1");
  }
  inspector_ = std::move(inspector);
  inspect_every_ = every;
  // Keep the phase: inspect when executed() reaches a multiple of every.
  inspect_countdown_ = every - executed_ % every;
}

void EventQueue::clear_inspector() noexcept {
  inspector_ = nullptr;
  inspect_every_ = 1;
}

void EventQueue::set_tie_breaker(std::function<std::size_t(std::size_t)> chooser) {
  if (chooser && stream_keys_ > 0) {
    throw std::logic_error("EventQueue::set_tie_breaker: a delivery stream holds keys");
  }
  tie_breaker_ = std::move(chooser);
}

bool EventQueue::next_is_tied() const noexcept {
  Time first = std::numeric_limits<Time>::infinity();
  std::size_t at_first = 0;
  const auto count = [&](Time at) {
    if (at < first) {
      first = at;
      at_first = 1;
    } else if (at == first) {
      ++at_first;
    }
  };
  for (const Entry& entry : heap_) {
    if (!entry_alive(entry)) {
      continue;
    }
    const std::uint32_t timer = slots_[entry.slot].timer;
    if (timer == kNoSlot) {
      count(entry.at);
    } else if (const std::uint32_t stream = timers_[timer].stream; stream == kNoSlot) {
      count(timers_[timer].due);
    } else {
      const FifoRing<Key>& keys = streams_[stream].keys;
      for (std::size_t i = 0; i < keys.size() && keys[i].at <= first; ++i) {
        count(keys[i].at);
      }
    }
  }
  return at_first >= 2;
}

void EventQueue::pending_times(std::vector<Time>& out) const {
  const std::size_t base = out.size();
  for (const Entry& entry : heap_) {
    if (!entry_alive(entry)) {
      continue;
    }
    const std::uint32_t timer = slots_[entry.slot].timer;
    if (timer == kNoSlot) {
      out.push_back(entry.at);
    } else if (const std::uint32_t stream = timers_[timer].stream; stream == kNoSlot) {
      out.push_back(timers_[timer].due);
    } else {
      const FifoRing<Key>& keys = streams_[stream].keys;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        out.push_back(keys[i].at);
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
}

}  // namespace pftk::sim
