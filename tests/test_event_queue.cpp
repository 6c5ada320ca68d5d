#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/event_loop_stats.hpp"
#include "sim/event_queue.hpp"

namespace pftk::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(1.0, [&] { ++fired; });
  q.cancel(id);
  q.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.cancel(9999);  // must not throw
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  q.schedule_at(1.0, [&] {
    times.push_back(q.now());
    q.schedule_in(1.5, [&] { times.push_back(q.now()); });
  });
  q.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run_until(2.0);
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(-0.1, [] {}), std::invalid_argument);
}

TEST(EventQueue, ExecutedCounterAdvances) {
  EventQueue q;
  q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  q.run_all();
  EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  q.run_until(7.5);
  EXPECT_DOUBLE_EQ(q.now(), 7.5);
}

TEST(EventQueue, CancelledEventDoesNotBlockOthersAtSameTime) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(1.0, [&] { fired += 100; });
  q.schedule_at(1.0, [&] { ++fired; });
  q.cancel(id);
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, MillionCancelledEventsAreReclaimed) {
  // Fault-heavy runs schedule and cancel timers constantly; lazy
  // cancellation must not let the heap grow without bound.
  EventQueue q;
  std::vector<EventId> ids;
  constexpr std::size_t kEvents = 1'000'000;
  ids.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    ids.push_back(q.schedule_at(static_cast<double>(i % 1000) + 1.0, [] {}));
  }
  EXPECT_EQ(q.pending(), kEvents);
  for (const EventId id : ids) {
    q.cancel(id);
  }
  EXPECT_EQ(q.pending(), 0u);
  // Compaction keeps dead entries below half the heap; with everything
  // cancelled, the heap must have collapsed to (near) nothing.
  EXPECT_LT(q.heap_size(), 64u);
  q.run_all();
  EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, HeapStaysProportionalToLiveEvents) {
  EventQueue q;
  std::vector<EventId> ids;
  constexpr std::size_t kEvents = 100'000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    ids.push_back(q.schedule_at(static_cast<double>(i) + 1.0, [] {}));
  }
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (i % 100 != 0) {
      q.cancel(ids[i]);  // keep 1% alive
    }
  }
  EXPECT_EQ(q.pending(), kEvents / 100);
  EXPECT_LE(q.heap_size(), 2 * q.pending() + 64);
  q.run_all();
  EXPECT_EQ(q.executed(), kEvents / 100);
}

TEST(EventQueue, InspectorRunsEveryNExecutedEvents) {
  EventQueue q;
  int inspections = 0;
  q.set_inspector([&] { ++inspections; }, 3);
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(static_cast<double>(i) + 1.0, [] {});
  }
  q.run_all();
  EXPECT_EQ(q.executed(), 10u);
  EXPECT_EQ(inspections, 3);  // after events 3, 6, 9
}

TEST(EventQueue, InspectorInstalledMidRunKeepsItsPhase) {
  EventQueue q;
  std::vector<std::uint64_t> inspected_at;
  for (int i = 0; i < 30; ++i) {
    q.schedule_at(static_cast<double>(i) + 1.0, [] {});
  }
  q.run_until(10.0);
  ASSERT_EQ(q.executed(), 10u);
  q.set_inspector([&] { inspected_at.push_back(q.executed()); }, 7);
  q.run_all();
  EXPECT_EQ(inspected_at, (std::vector<std::uint64_t>{14, 21, 28}));
}

TEST(EventQueue, ClearedInspectorStopsFiring) {
  EventQueue q;
  int inspections = 0;
  q.set_inspector([&] { ++inspections; });
  q.schedule_at(1.0, [] {});
  q.run_all();
  EXPECT_EQ(inspections, 1);
  q.clear_inspector();
  q.schedule_at(2.0, [] {});
  q.run_all();
  EXPECT_EQ(inspections, 1);
}

TEST(EventQueue, InspectorExceptionAbortsTheRunConsistently) {
  EventQueue q;
  q.set_inspector([&] {
    if (q.executed() == 2) {
      throw std::runtime_error("budget");
    }
  });
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(static_cast<double>(i) + 1.0, [] {});
  }
  EXPECT_THROW(q.run_all(), std::runtime_error);
  EXPECT_EQ(q.executed(), 2u);
  EXPECT_EQ(q.pending(), 3u);
  // The queue survives the abort: clearing the hook lets the run resume.
  q.clear_inspector();
  q.run_all();
  EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueue, InspectorIntervalMustBePositive) {
  EventQueue q;
  EXPECT_THROW(q.set_inspector([] {}, 0), std::invalid_argument);
}

TEST(EventQueue, InspectorThrowMidRunLeavesCompactedQueueConsistent) {
  // A watchdog aborting a fault-heavy run must leave the queue in a
  // re-runnable state even when compaction has already run: pending(),
  // the clock and FIFO order all stay coherent across the abort.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 500; ++i) {
    doomed.push_back(q.schedule_at(1.0, [] {}));
  }
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(2.0 + static_cast<double>(i), [&order, i] { order.push_back(i); });
  }
  for (const EventId id : doomed) {
    q.cancel(id);  // drives cancelled_in_heap_ past the compaction trigger
  }
  EXPECT_LT(q.heap_size(), 64u);
  EXPECT_EQ(q.pending(), 10u);

  q.set_inspector([&] {
    if (q.executed() == 3) {
      throw std::runtime_error("deadline");
    }
  });
  EXPECT_THROW(q.run_all(), std::runtime_error);
  EXPECT_EQ(q.executed(), 3u);
  EXPECT_EQ(q.pending(), 7u);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);

  // The abort consumed nothing it shouldn't have: the rerun finishes the
  // remaining events in the original FIFO/time order.
  q.clear_inspector();
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelFromInsideExecutingEventKeepsFifoOrder) {
  // An executing event cancelling a *later* same-timestamp event must
  // not disturb the FIFO order of the survivors.
  EventQueue q;
  std::vector<int> order;
  EventId third = 0;
  q.schedule_at(1.0, [&] {
    order.push_back(0);
    q.cancel(third);
  });
  q.schedule_at(1.0, [&order] { order.push_back(1); });
  third = q.schedule_at(1.0, [&order] { order.push_back(2); });
  q.schedule_at(1.0, [&order] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, SelfCancelFromInsideExecutingEventIsHarmless) {
  // Cancelling your own (already-firing) id is a late cancel: a no-op
  // that must not corrupt the pending count or reclaim a reused slot.
  EventQueue q;
  int fired = 0;
  EventId self = 0;
  self = q.schedule_at(1.0, [&] {
    ++fired;
    q.cancel(self);                       // own id: already consumed
    q.schedule_at(2.0, [&] { ++fired; }); // may reuse the freed slot
    q.cancel(self);                       // still a no-op, even after reuse
  });
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.executed(), 2u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelDuringExecutionKeepsCompactionCounterConsistent) {
  // Heavy cancellation *from inside executing events* must keep the
  // compaction accounting right: the heap stays bounded by the live
  // count and every survivor still fires exactly once.
  EventQueue q;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::vector<EventId> batch;
  constexpr int kRounds = 50;
  constexpr int kPerRound = 200;
  for (int r = 0; r < kRounds; ++r) {
    q.schedule_at(static_cast<double>(r) + 1.0, [&] {
      ++fired;
      for (const EventId id : batch) {
        q.cancel(id);
        ++cancelled;
      }
      batch.clear();
      for (int i = 0; i < kPerRound; ++i) {
        batch.push_back(q.schedule_in(100.0, [&] { ++fired; }));
      }
    });
  }
  q.run_until(static_cast<double>(kRounds) + 1.0);
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(cancelled, static_cast<std::uint64_t>((kRounds - 1) * kPerRound));
  // Only the final round's batch is still pending.
  EXPECT_EQ(q.pending(), static_cast<std::size_t>(kPerRound));
  EXPECT_LE(q.heap_size(), 2 * q.pending() + 64);
  q.run_all();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kRounds + kPerRound));
}

TEST(EventQueue, OversizedCallbackFallsBackToHeapCorrectly) {
  // Captures beyond the inline small-buffer capacity take the heap
  // fallback; behaviour (execution, cancellation, destruction) must be
  // identical.
  EventQueue q;
  std::array<double, 16> big{};  // 128 bytes > kInlineCapacity
  big[7] = 42.0;
  double seen = 0.0;
  q.schedule_at(1.0, [big, &seen] { seen = big[7]; });
  auto shared = std::make_shared<int>(0);
  std::array<double, 16> pad{};
  const EventId cancelled =
      q.schedule_at(1.0, [shared, pad, &seen] { seen = pad[0]; });
  EXPECT_EQ(shared.use_count(), 2);
  q.cancel(cancelled);
  // Cancel destroys the stored callable immediately: the capture's
  // shared_ptr must be released, not leaked until queue teardown.
  EXPECT_EQ(shared.use_count(), 1);
  q.run_all();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(EventQueue, TieBreakerRealizesChosenPermutation) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  // Always dispatch the youngest tied event first: [0,1,2] -> 2 runs,
  // [0,1] -> 1 runs, lone 0 runs without a decision.
  q.set_tie_breaker([](std::size_t tied) { return tied - 1; });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(EventQueue, TieBreakerReturningZeroIsFifo) {
  EventQueue q;
  std::vector<int> fifo;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&fifo, i] { fifo.push_back(i); });
  }
  int decisions = 0;
  q.set_tie_breaker([&decisions](std::size_t) {
    ++decisions;
    return std::size_t{0};
  });
  q.run_all();
  EXPECT_EQ(fifo, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_GT(decisions, 0);
}

TEST(EventQueue, TieBreakerNotConsultedWithoutTies) {
  EventQueue q;
  int decisions = 0;
  q.set_tie_breaker([&decisions](std::size_t) {
    ++decisions;
    return std::size_t{0};
  });
  for (int i = 0; i < 4; ++i) {
    q.schedule_at(1.0 + i, [] {});
  }
  q.run_all();
  EXPECT_EQ(decisions, 0);
}

TEST(EventQueue, TieGroupsAreCappedAtMaxFanout) {
  EventQueue q;
  std::size_t widest = 0;
  q.set_tie_breaker([&widest](std::size_t tied) {
    widest = std::max(widest, tied);
    return std::size_t{0};
  });
  int fired = 0;
  for (int i = 0; i < 40; ++i) {
    q.schedule_at(1.0, [&fired] { ++fired; });
  }
  q.run_all();
  EXPECT_EQ(fired, 40);
  EXPECT_GE(widest, 2u);
  EXPECT_LE(widest, EventQueue::kMaxTieFanout);
}

TEST(EventQueue, ClearedTieBreakerRestoresFifoFastPath) {
  EventQueue q;
  int decisions = 0;
  q.set_tie_breaker([&decisions](std::size_t) {
    ++decisions;
    return std::size_t{0};
  });
  q.set_tie_breaker({});
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(decisions, 0);
}

// ---- Stop requests -------------------------------------------------------

TEST(EventQueueStop, CallbackStopsTheRunAfterItsEvent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] {
    order.push_back(2);
    q.request_stop();
    q.schedule_at(2.0, [&] { order.push_back(20); });  // the event still finishes
  });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 2.0);  // the stopping event's time, not the end time
  EXPECT_EQ(q.executed(), 2u);
  EXPECT_EQ(q.pending(), 2u);
  q.run_until(10.0);  // carries on in the uninterrupted order
  EXPECT_EQ(order, (std::vector<int>{1, 2, 20, 3}));
  EXPECT_EQ(q.now(), 10.0);
}

TEST(EventQueueStop, InspectorStopsTheRunAfterTheEventItInspects) {
  EventQueue q;
  q.set_inspector([&] {
    if (q.executed() == 2) {
      q.request_stop();
    }
  });
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(static_cast<double>(i) + 1.0, [] {});
  }
  q.run_until(100.0);
  EXPECT_EQ(q.executed(), 2u);
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 3u);
  q.run_until(100.0);
  EXPECT_EQ(q.executed(), 5u);
  EXPECT_EQ(q.now(), 100.0);
}

TEST(EventQueueStop, TieBreakerStopsTheRunAfterTheEventItChose) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.schedule_at(2.0, [&order] { order.push_back(9); });
  bool stopped = false;
  q.set_tie_breaker([&](std::size_t tied) {
    if (!stopped) {
      stopped = true;
      q.request_stop();
      return tied - 1;
    }
    return std::size_t{0};
  });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{2}));  // the chosen event ran, nothing else
  EXPECT_EQ(q.now(), 1.0);
  EXPECT_EQ(q.executed(), 1u);
  EXPECT_EQ(q.pending(), 3u);
  q.run_until(10.0);  // the tied losers kept their FIFO order
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 9}));
  EXPECT_EQ(q.now(), 10.0);
}

TEST(EventQueueStop, RunAllStopsAndResumes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    q.schedule_at(static_cast<double>(i), [&q, &order, i] {
      order.push_back(i);
      if (i == 1) {
        q.request_stop();
      }
    });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.now(), 1.0);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueueStop, RequestOutsideARunStopsTheNextRunBeforeItsFirstEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.request_stop();
  q.run_until(5.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.now(), 0.0);
  q.run_until(5.0);  // the request was consumed: this run goes through
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 5.0);
}

TEST(EventQueue, NonFiniteTimesAreRejected) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EventQueue q;
  for (const double bad : {kNaN, kInf, -kInf}) {
    EXPECT_THROW(q.schedule_at(bad, [] {}), std::invalid_argument) << bad;
    EXPECT_THROW(q.schedule_in(bad, [] {}), std::invalid_argument) << bad;
  }
  EXPECT_EQ(q.pending(), 0u);
  // A NaN event used to run inside run_until and set now() to NaN, after
  // which every "time in the past" check passed.
  q.run_until(10.0);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
  EXPECT_THROW(q.schedule_at(5.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilNaNThrowsBeforeRunningAnything) {
  // run_until(NaN) used to run every pending event: a chain like this
  // one (or a saturated connection) would never return.
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 1000) {
      q.schedule_in(1.0, chain);
    }
  };
  q.schedule_at(1.0, chain);
  EXPECT_THROW(q.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.executed(), 0u);
  EXPECT_EQ(q.pending(), 1u);
}

// ---- Re-armable timers --------------------------------------------------

std::vector<Time> pending_times_of(const EventQueue& q) {
  std::vector<Time> out;
  q.pending_times(out);
  return out;
}

TEST(EventQueueTimer, ArmsFiresAndReportsState) {
  EventQueue q;
  std::vector<double> fired;
  const TimerId t = q.add_timer([&] { fired.push_back(q.now()); });
  EXPECT_FALSE(q.armed(t));
  EXPECT_EQ(q.pending(), 0u);
  q.arm_at(t, 2.0);
  EXPECT_TRUE(q.armed(t));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(pending_times_of(q), (std::vector<Time>{2.0}));
  q.run_all();
  EXPECT_EQ(fired, (std::vector<double>{2.0}));
  EXPECT_FALSE(q.armed(t));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueueTimer, RearmEarlierThanThePendingEntry) {
  EventQueue q;
  std::vector<double> fired;
  const TimerId t = q.add_timer([&] { fired.push_back(q.now()); });
  q.arm_at(t, 5.0);
  q.arm_at(t, 2.0);  // the 5.0 entry goes stale
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(pending_times_of(q), (std::vector<Time>{2.0}));
  q.run_all();
  EXPECT_EQ(fired, (std::vector<double>{2.0}));
  EXPECT_EQ(q.executed(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);  // the stale entry ran nothing
}

TEST(EventQueueTimer, RearmLaterKeepsOneEntryAndFiresAtTheNewDeadline) {
  EventQueue q;
  std::vector<int> order;
  const TimerId t = q.add_timer([&] { order.push_back(0); });
  q.arm_at(t, 2.0);
  const std::size_t heap_before = q.heap_size();
  q.arm_at(t, 5.0);
  EXPECT_EQ(q.heap_size(), heap_before);  // no heap work for a restart
  EXPECT_EQ(pending_times_of(q), (std::vector<Time>{5.0}));
  q.schedule_at(3.0, [&] { order.push_back(1); });
  q.run_until(4.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_TRUE(q.armed(t));
  EXPECT_EQ(pending_times_of(q), (std::vector<Time>{5.0}));
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueueTimer, DisarmThenRearmAtTheSameTimeTakesAFreshSequenceNumber) {
  EventQueue q;
  std::vector<int> order;
  const TimerId t = q.add_timer([&] { order.push_back(0); });
  q.arm_at(t, 3.0);
  q.schedule_at(3.0, [&] { order.push_back(1); });
  q.disarm(t);
  EXPECT_FALSE(q.armed(t));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(pending_times_of(q), (std::vector<Time>{3.0}));
  q.arm_at(t, 3.0);  // behind the one-shot, as cancel + schedule_at puts it
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueueTimer, RearmsItselfFromItsOwnCallback) {
  EventQueue q;
  std::vector<double> fired;
  TimerId t = 0;
  t = q.add_timer([&] {
    fired.push_back(q.now());
    EXPECT_FALSE(q.armed(t));  // disarmed before the callback runs
    if (fired.size() < 3) {
      q.arm_in(t, 1.0);
    }
  });
  q.arm_at(t, 1.0);
  q.run_all();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(q.executed(), 3u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTimer, TiedWithTheEventThatRearmsIt) {
  // Under a tie-breaker that always runs the youngest tied event, the
  // one-shot runs first and re-arms the timer at the same instant: the
  // timer keeps its place in the heap but now sits behind every event
  // scheduled before the re-arm, and fires exactly once.
  EventQueue q;
  std::vector<int> order;
  std::vector<std::size_t> groups;
  const TimerId t = q.add_timer([&] { order.push_back(0); });
  q.arm_at(t, 1.0);
  q.schedule_at(1.0, [&] {
    order.push_back(1);
    q.arm_at(t, 1.0);
  });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.set_tie_breaker([&](std::size_t tied) {
    groups.push_back(tied);
    return tied - 1;
  });
  q.run_all();
  // [t, 1, 2] -> 2 runs; [t, 1] -> 1 runs and re-arms t; t alone runs.
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(groups, (std::vector<std::size_t>{3, 2}));
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTimer, CompactionDropsDisarmedTimerEntriesAndKeepsThemRearmable) {
  EventQueue q;
  obs::EventLoopStats stats;
  q.set_stats_sink(&stats);
  std::vector<int> fired;
  std::vector<TimerId> timers;
  for (int i = 0; i < 100; ++i) {
    timers.push_back(q.add_timer([&fired, i] { fired.push_back(i); }));
    q.arm_at(timers.back(), 10.0 + i);
  }
  for (int i = 0; i < 90; ++i) {
    q.disarm(timers[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(q.pending(), 10u);
  EXPECT_LE(q.heap_size(), 2 * q.pending() + 64);
  // Re-arm two whose entries compaction removed: each needs a new one.
  q.arm_at(timers[5], 1.0);
  q.arm_at(timers[7], 200.0);
  EXPECT_EQ(pending_times_of(q).front(), 1.0);
  EXPECT_EQ(pending_times_of(q).back(), 200.0);
  q.run_all();
  EXPECT_EQ(fired, (std::vector<int>{5, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 7}));
  EXPECT_EQ(stats.scheduled, 102u);
  EXPECT_EQ(stats.cancelled, 90u);
  EXPECT_EQ(stats.executed, 12u);
}

TEST(EventQueueTimer, ThrowingCallbackLeavesTheTimerRearmable) {
  EventQueue q;
  int calls = 0;
  const TimerId t = q.add_timer([&] {
    if (++calls == 1) {
      throw std::runtime_error("invariant");
    }
  });
  q.arm_at(t, 1.0);
  EXPECT_THROW(q.run_all(), std::runtime_error);
  EXPECT_FALSE(q.armed(t));
  EXPECT_EQ(q.pending(), 0u);
  q.arm_at(t, 2.0);
  q.run_all();
  EXPECT_EQ(calls, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueueTimer, CallbackSurvivesSlabGrowthWhileRunning) {
  // The running callback schedules enough events to reallocate the slab;
  // its captures must still be intact afterwards (ASan checks the rest).
  EventQueue q;
  std::array<double, 4> captured{1.0, 2.0, 3.0, 4.0};
  double seen = 0.0;
  const TimerId t = q.add_timer([&q, &seen, captured] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule_in(1.0, [] {});
    }
    seen = captured[3];
  });
  q.arm_at(t, 1.0);
  q.run_all();
  EXPECT_DOUBLE_EQ(seen, 4.0);
  EXPECT_EQ(q.executed(), 1001u);
}

TEST(EventQueueTimer, NonFiniteOrPastDeadlinesAreRejected) {
  EventQueue q;
  const TimerId t = q.add_timer([] {});
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(q.arm_at(t, bad), std::invalid_argument) << bad;
    EXPECT_THROW(q.arm_in(t, bad), std::invalid_argument) << bad;
  }
  q.run_until(2.0);
  EXPECT_THROW(q.arm_at(t, 1.0), std::invalid_argument);
  EXPECT_THROW(q.arm_in(t, -0.5), std::invalid_argument);
  EXPECT_FALSE(q.armed(t));
}

/// One side of the timer and stream differential tests: K logical
/// timers, S delivery streams and one-shots on one queue. With
/// `use_handles` the K timers are re-armable timers and a delivery is a
/// stream push whose payload waits in a FIFO beside the stream, as a
/// Link's does; without, every arm is cancel + schedule_at of a fresh
/// event, every disarm a cancel and every delivery a schedule_at.
/// Callbacks log (tag, now) and perform more operations drawn from the
/// side's own RNG, so two sides seeded alike stay in lockstep exactly as
/// long as their dispatch orders agree. With `stop_points`, callbacks
/// and the tie-breaker also request stops at points drawn from a second
/// RNG, and run_until/run_all resume until the run is through: the stops
/// must leave no trace.
class ScriptedQueue {
 public:
  ScriptedQueue(bool use_handles, std::uint64_t seed, std::size_t timers, std::size_t streams,
                bool tie_breaks, bool stop_points = false)
      : use_handles_(use_handles),
        stop_points_(stop_points),
        rng_(seed),
        stop_rng_(~seed),
        ids_(timers, 0),
        last_key_(streams, 0.0),
        payloads_(streams) {
    queue.set_stats_sink(&stats);
    for (std::size_t i = 0; i < timers; ++i) {
      if (use_handles_) {
        handles_.push_back(queue.add_timer([this, i] { fired(static_cast<int>(i)); }));
      }
    }
    for (std::size_t s = 0; s < streams; ++s) {
      if (use_handles_) {
        streams_.push_back(queue.add_stream([this, s] {
          const int tag = payloads_[s].front();
          payloads_[s].pop_front();
          fired(tag);
        }));
      }
    }
    next_tag_ = static_cast<int>(timers);
    if (tie_breaks) {
      queue.set_tie_breaker([this](std::size_t tied) {
        ties.push_back(tied);
        maybe_stop();
        return static_cast<std::size_t>(rng_() % tied);
      });
    }
  }

  void run_until(Time end) {
    do {
      stop_asked_ = false;
      queue.run_until(end);
    } while (stop_asked_);
  }

  void run_all() {
    do {
      stop_asked_ = false;
      queue.run_all();
    } while (stop_asked_);
  }

  /// One random arm, disarm, one-shot or (with streams) delivery on the
  /// 0.25-s grid ahead of now. A delivery lands at or after its stream's
  /// last key, so equal times within and across streams are common.
  void random_op() {
    const Time at = queue.now() + 0.25 * static_cast<double>(rng_() % 9);
    const std::size_t i = rng_() % ids_.size();
    switch (rng_() % (last_key_.empty() ? 3 : 4)) {
      case 0:
        if (use_handles_) {
          queue.arm_at(handles_[i], at);
        } else {
          queue.cancel(ids_[i]);
          ids_[i] = queue.schedule_at(at, [this, i] { fired(static_cast<int>(i)); });
        }
        break;
      case 1:
        if (use_handles_) {
          queue.disarm(handles_[i]);
        } else {
          queue.cancel(ids_[i]);
        }
        break;
      case 2: {
        const int tag = next_tag_++;
        queue.schedule_at(at, [this, tag] { fired(tag); });
        break;
      }
      default: {
        const std::size_t s = rng_() % last_key_.size();
        last_key_[s] = std::max(last_key_[s], at);
        const int tag = next_tag_++;
        if (use_handles_) {
          queue.push(streams_[s], last_key_[s]);
          payloads_[s].push_back(tag);
        } else {
          queue.schedule_at(last_key_[s], [this, tag] { fired(tag); });
        }
        break;
      }
    }
  }

  /// The queue's state and the script's own, so that a restore puts the
  /// whole side back (the stats sink is the script's).
  struct Snapshot {
    EventQueue::State queue;
    obs::EventLoopStats stats;
    std::vector<std::pair<int, Time>> log;
    std::vector<std::size_t> ties;
    std::size_t stops = 0;
    bool stop_asked = false;
    std::mt19937_64 rng;
    std::mt19937_64 stop_rng;
    std::vector<EventId> ids;
    std::vector<Time> last_key;
    std::vector<std::deque<int>> payloads;
    int next_tag = 0;
    int budget = 0;
  };

  /// Whether a stop was requested that the running run_until has not
  /// yet resumed from.
  [[nodiscard]] bool stop_pending() const noexcept { return stop_asked_; }

  void save(Snapshot& out) const {
    queue.save(out.queue);
    out.stats = stats;
    out.log = log;
    out.ties = ties;
    out.stops = stops;
    out.stop_asked = stop_asked_;
    out.rng = rng_;
    out.stop_rng = stop_rng_;
    out.ids = ids_;
    out.last_key = last_key_;
    out.payloads = payloads_;
    out.next_tag = next_tag_;
    out.budget = budget_;
  }

  void restore(const Snapshot& in) {
    queue.restore(in.queue);
    stats = in.stats;
    log = in.log;
    ties = in.ties;
    stops = in.stops;
    stop_asked_ = in.stop_asked;
    rng_ = in.rng;
    stop_rng_ = in.stop_rng;
    ids_ = in.ids;
    last_key_ = in.last_key;
    payloads_ = in.payloads;
    next_tag_ = in.next_tag;
    budget_ = in.budget;
  }

  EventQueue queue;
  obs::EventLoopStats stats;
  std::vector<std::pair<int, Time>> log;  ///< (tag, time) per dispatch
  std::vector<std::size_t> ties;          ///< tie-group sizes offered
  std::size_t stops = 0;                  ///< stop requests made

 private:
  void maybe_stop() {
    if (stop_points_ && stop_rng_() % 4 == 0) {
      queue.request_stop();
      stop_asked_ = true;
      ++stops;
    }
  }

  void fired(int tag) {
    log.emplace_back(tag, queue.now());
    maybe_stop();
    if (budget_ > 0) {  // bounded, so run_all terminates
      --budget_;
      for (std::uint64_t n = rng_() % 3; n > 0; --n) {
        random_op();
      }
    }
  }

  bool use_handles_;
  bool stop_points_;
  bool stop_asked_ = false;
  std::mt19937_64 rng_;
  std::mt19937_64 stop_rng_;
  std::vector<EventId> ids_;
  std::vector<TimerId> handles_;
  std::vector<Time> last_key_;             ///< per stream
  std::vector<std::deque<int>> payloads_;  ///< per stream, oldest first
  std::vector<StreamId> streams_;
  int next_tag_ = 0;
  int budget_ = 60;
};

::testing::AssertionResult same_state(const ScriptedQueue& a, const ScriptedQueue& b) {
  if (a.log != b.log) {
    return ::testing::AssertionFailure() << "dispatch logs differ";
  }
  if (a.ties != b.ties) {
    return ::testing::AssertionFailure() << "tie groups differ";
  }
  if (a.queue.executed() != b.queue.executed() || a.queue.pending() != b.queue.pending()) {
    return ::testing::AssertionFailure()
           << "executed/pending " << a.queue.executed() << "/" << a.queue.pending()
           << " vs " << b.queue.executed() << "/" << b.queue.pending();
  }
  if (pending_times_of(a.queue) != pending_times_of(b.queue)) {
    return ::testing::AssertionFailure() << "pending_times differ";
  }
  if (a.stats.scheduled != b.stats.scheduled || a.stats.cancelled != b.stats.cancelled ||
      a.stats.executed != b.stats.executed) {
    return ::testing::AssertionFailure() << "event counters differ";
  }
  return ::testing::AssertionSuccess();
}

/// Runs `scripts` seeded scripts on twin queues, timers (and, with
/// `with_streams`, 1 to 4 delivery streams) that stop and resume at random
/// points against cancel + schedule_at run through, comparing after every
/// step; returns the scripts that diverged.
int diverging_scripts(int scripts, bool tie_breaks, bool with_streams = false) {
  int diverged = 0;
  std::size_t stops = 0;
  for (int script = 0; script < scripts; ++script) {
    const auto seed = static_cast<std::uint64_t>(script) * 7919u + (tie_breaks ? 1u : 0u) +
                      (with_streams ? 2u : 0u);
    std::mt19937_64 pick(seed);
    const std::size_t k = 1 + pick() % 4;
    const std::size_t streams = with_streams ? 1 + pick() % 4 : 0;
    ScriptedQueue timers(true, seed, k, streams, tie_breaks, /*stop_points=*/true);
    ScriptedQueue events(false, seed, k, streams, tie_breaks);
    bool same = true;
    for (int step = 0; step < 40 && same; ++step) {
      const bool run = pick() % 4 == 0;
      const double span = 0.25 * static_cast<double>(pick() % 5);
      for (ScriptedQueue* d : {&timers, &events}) {
        if (run) {
          d->run_until(d->queue.now() + span);
        } else {
          d->random_op();
        }
      }
      same = static_cast<bool>(same_state(timers, events));
    }
    if (same) {
      timers.run_all();
      events.run_all();
      same = static_cast<bool>(same_state(timers, events));
    }
    stops += timers.stops;
    if (!same) {
      ADD_FAILURE() << "script " << script << " (tie_breaks=" << tie_breaks
                    << ", streams=" << streams << "): " << same_state(timers, events).message();
      ++diverged;
    }
  }
  EXPECT_GT(stops, static_cast<std::size_t>(scripts)) << "too few stop points to test";
  return diverged;
}

TEST(EventQueueTimer, MatchesCancelPlusScheduleOnRandomScripts) {
  EXPECT_EQ(diverging_scripts(2000, /*tie_breaks=*/false), 0);
}

TEST(EventQueueTimer, MatchesCancelPlusScheduleUnderARandomTieBreaker) {
  EXPECT_EQ(diverging_scripts(2000, /*tie_breaks=*/true), 0);
}

// ---- Delivery streams ---------------------------------------------------

TEST(EventQueueStream, MatchesScheduleAtOnRandomScripts) {
  EXPECT_EQ(diverging_scripts(2000, /*tie_breaks=*/false, /*with_streams=*/true), 0);
}

// ---- Snapshots ----------------------------------------------------------

/// Whether two queues' states agree field for field, callbacks aside. A
/// restored side replays its twin's operations, so it must hold even the
/// fields no dispatch order shows, such as the schedule counter (new seqs
/// stay in order past a gap).
::testing::AssertionResult same_saved_state(const EventQueue& a, const EventQueue& b) {
  EventQueue::State x;
  EventQueue::State y;
  a.save(x);
  b.save(y);
  if (x.now_ != y.now_ || x.next_seq_ != y.next_seq_ || x.executed_ != y.executed_ ||
      x.free_head_ != y.free_head_ || x.live_count_ != y.live_count_ ||
      x.cancelled_in_heap_ != y.cancelled_in_heap_ || x.stream_keys_ != y.stream_keys_ ||
      x.stop_requested_ != y.stop_requested_ || x.inspect_countdown_ != y.inspect_countdown_) {
    return ::testing::AssertionFailure()
           << "clock or counters differ (next seq " << x.next_seq_ << " vs " << y.next_seq_
           << ")";
  }
  const auto same_entries = [](const auto& p, const auto& q) {
    return p.size() == q.size() && std::equal(p.begin(), p.end(), q.begin(), [](auto& e, auto& f) {
             return e.at == f.at && e.seq == f.seq && e.slot == f.slot && e.gen == f.gen;
           });
  };
  if (!same_entries(x.heap_, y.heap_)) {
    return ::testing::AssertionFailure() << "heaps differ";
  }
  if (!std::equal(x.slots_.begin(), x.slots_.end(), y.slots_.begin(), y.slots_.end(),
                  [](auto& s, auto& t) {
                    return s.gen == t.gen && s.next_free == t.next_free &&
                           s.timer == t.timer && s.live == t.live;
                  })) {
    return ::testing::AssertionFailure() << "slabs differ";
  }
  if (!std::equal(x.timers_.begin(), x.timers_.end(), y.timers_.begin(), y.timers_.end(),
                  [](auto& s, auto& t) {
                    return s.due == t.due && s.seq == t.seq && s.entry_at == t.entry_at &&
                           s.slot == t.slot && s.stream == t.stream && s.queued == t.queued;
                  })) {
    return ::testing::AssertionFailure() << "timers differ";
  }
  if (!std::equal(x.streams_.begin(), x.streams_.end(), y.streams_.begin(), y.streams_.end(),
                  [](auto& s, auto& t) {
                    if (s.timer != t.timer || s.keys.size() != t.keys.size()) {
                      return false;
                    }
                    for (std::size_t i = 0; i < s.keys.size(); ++i) {
                      if (s.keys[i].at != t.keys[i].at || s.keys[i].seq != t.keys[i].seq) {
                        return false;
                      }
                    }
                    return true;
                  })) {
    return ::testing::AssertionFailure() << "streams differ";
  }
  return ::testing::AssertionSuccess();
}

/// Runs `scripts` seeded scripts on twin sides that both stop and resume
/// at random points; one side also saves at random event boundaries (from
/// its inspector, mid-run) and between steps, goes on an excursion of
/// random operations and runs, restores, and finishes the interrupted
/// step. After every step the two must agree, in what they did and in
/// their queues' states; returns the scripts that diverged.
int diverging_snapshot_scripts(int scripts, bool tie_breaks, bool with_streams) {
  int diverged = 0;
  std::size_t restores = 0;
  for (int script = 0; script < scripts; ++script) {
    const auto seed = static_cast<std::uint64_t>(script) * 104729u + (tie_breaks ? 1u : 0u) +
                      (with_streams ? 2u : 0u);
    std::mt19937_64 pick(seed);
    std::mt19937_64 snap_pick(~seed);
    const std::size_t k = 1 + pick() % 4;
    const std::size_t streams = with_streams ? 1 + pick() % 4 : 0;
    ScriptedQueue snap(true, seed, k, streams, tie_breaks, /*stop_points=*/true);
    ScriptedQueue twin(true, seed, k, streams, tie_breaks, /*stop_points=*/true);
    ScriptedQueue::Snapshot saved;
    bool saved_mid_run = true;  // false while a step's run may save
    snap.queue.set_inspector([&] {
      // Not after a stop request: the resumed run would end at once.
      if (!saved_mid_run && !snap.stop_pending() && snap_pick() % 6 == 0) {
        snap.save(saved);
        saved_mid_run = true;
      }
    });
    twin.queue.set_inspector([] {});  // the same inspection phase
    const auto agree = [&snap, &twin] {
      const ::testing::AssertionResult same = same_state(snap, twin);
      return same ? same_saved_state(snap.queue, twin.queue) : same;
    };
    // Random work that the restore must undo without a trace.
    const auto excursion = [&snap, &snap_pick] {
      for (std::uint64_t n = snap_pick() % 4; n > 0; --n) {
        snap.random_op();
      }
      snap.run_until(snap.queue.now() + 0.25 * static_cast<double>(snap_pick() % 6));
    };
    bool same = true;
    for (int step = 0; step < 40 && same; ++step) {
      const bool run = pick() % 4 == 0;
      const double span = 0.25 * static_cast<double>(pick() % 5);
      const Time end = twin.queue.now() + span;
      if (run) {
        twin.run_until(end);
      } else {
        twin.random_op();
      }
      if (snap_pick() % 5 == 0) {
        // Between steps: the restored side must take the step as if the
        // excursion had never happened.
        snap.save(saved);
        excursion();
        snap.restore(saved);
        ++restores;
      }
      saved_mid_run = false;
      if (run) {
        snap.run_until(end);
        if (saved_mid_run) {
          excursion();
          snap.restore(saved);
          snap.run_until(end);  // the rest of the interrupted run
          ++restores;
        }
      } else {
        snap.random_op();
      }
      saved_mid_run = true;  // no saves outside this step's run
      same = static_cast<bool>(agree());
    }
    if (same) {
      snap.run_all();
      twin.run_all();
      same = static_cast<bool>(agree());
    }
    if (!same) {
      ADD_FAILURE() << "script " << script << " (tie_breaks=" << tie_breaks
                    << ", streams=" << streams << "): " << agree().message();
      ++diverged;
    }
  }
  EXPECT_GT(restores, static_cast<std::size_t>(scripts)) << "too few restores to test";
  return diverged;
}

TEST(EventQueueSnapshot, RestoredQueueRunsOnLikeItsUninterruptedTwin) {
  EXPECT_EQ(diverging_snapshot_scripts(1000, /*tie_breaks=*/false, /*with_streams=*/false), 0);
}

TEST(EventQueueSnapshot, RestoresUnderARandomTieBreaker) {
  EXPECT_EQ(diverging_snapshot_scripts(1000, /*tie_breaks=*/true, /*with_streams=*/false), 0);
}

TEST(EventQueueSnapshot, RestoresDeliveryStreams) {
  EXPECT_EQ(diverging_snapshot_scripts(1000, /*tie_breaks=*/false, /*with_streams=*/true), 0);
}

TEST(EventQueue, NextIsTiedSeesTheEarliestTimeOnly) {
  EventQueue q;
  EXPECT_FALSE(q.next_is_tied());
  const TimerId t = q.add_timer([] {});
  q.arm_at(t, 1.0);
  q.schedule_at(2.0, [] {});
  q.schedule_at(2.0, [] {});
  EXPECT_FALSE(q.next_is_tied());  // the tie at 2 s is not next
  const EventId id = q.schedule_at(1.0, [] {});
  EXPECT_TRUE(q.next_is_tied());
  q.cancel(id);
  EXPECT_FALSE(q.next_is_tied());
  q.arm_at(t, 2.0);  // a re-armed timer counts at its real deadline
  EXPECT_TRUE(q.next_is_tied());
  const StreamId s = q.add_stream([] {});
  q.push(s, 0.5);
  q.push(s, 0.5);
  EXPECT_TRUE(q.next_is_tied());  // a stream's keys behind its head count
  q.run_until(0.5);
  EXPECT_TRUE(q.next_is_tied());
}

TEST(EventQueueSnapshot, NonCopyableCallbackCannotBeSaved) {
  EventQueue q;
  auto owned = std::make_unique<int>(7);
  q.schedule_at(1.0, [p = std::move(owned)] { (void)*p; });
  EventQueue::State state;
  EXPECT_THROW(q.save(state), std::logic_error);
  q.run_all();
  EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueueStream, KeysFireInOrderAndCountAsScheduledEvents) {
  EventQueue q;
  obs::EventLoopStats stats;
  q.set_stats_sink(&stats);
  std::vector<std::pair<int, Time>> log;
  const StreamId s = q.add_stream([&] { log.emplace_back(0, q.now()); });
  q.push(s, 1.0);
  q.schedule_at(1.0, [&] { log.emplace_back(1, q.now()); });
  q.push(s, 1.0);  // same time, later seq: behind the one-shot
  q.push(s, 2.0);
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(pending_times_of(q), (std::vector<Time>{1.0, 1.0, 1.0, 2.0}));
  EXPECT_EQ(q.heap_size(), 2u);  // the stream's head and the one-shot
  q.run_all();
  EXPECT_EQ(log, (std::vector<std::pair<int, Time>>{{0, 1.0}, {1, 1.0}, {0, 1.0}, {0, 2.0}}));
  EXPECT_EQ(stats.scheduled, 4u);
  EXPECT_EQ(stats.executed, 4u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueStream, PushBeforeTheLastKeyThrows) {
  EventQueue q;
  std::vector<Time> fired;
  const StreamId s = q.add_stream([&] { fired.push_back(q.now()); });
  q.push(s, 2.0);
  EXPECT_THROW(q.push(s, 1.5), std::logic_error);
  EXPECT_EQ(q.pending(), 1u);
  q.push(s, 2.0);  // an equal time is a later key
  q.run_until(3.0);
  EXPECT_THROW(q.push(s, 2.5), std::invalid_argument);  // in the past
  EXPECT_THROW(q.push(s, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  q.push(s, 3.0);  // a drained stream is bounded by now() alone
  q.run_all();
  EXPECT_EQ(fired, (std::vector<Time>{2.0, 2.0, 3.0}));
}

TEST(EventQueueStream, TieBreakerAndStreamKeysExcludeEachOther) {
  EventQueue q;
  const StreamId s = q.add_stream([] {});
  const auto fifo = [](std::size_t) { return std::size_t{0}; };
  q.push(s, 1.0);
  EXPECT_THROW(q.set_tie_breaker(fifo), std::logic_error);
  EXPECT_FALSE(q.has_tie_breaker());
  q.run_all();
  q.set_tie_breaker(fifo);  // the stream has drained
  EXPECT_TRUE(q.has_tie_breaker());
  EXPECT_THROW(q.push(s, 2.0), std::logic_error);
  EXPECT_EQ(q.pending(), 0u);
  q.set_tie_breaker({});
  q.push(s, 2.0);
  q.run_all();
  EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueueStream, ThrowingHeadLeavesTheRestDeliveringInOrder) {
  EventQueue q;
  std::deque<int> payloads;
  std::vector<std::pair<int, Time>> delivered;
  const StreamId s = q.add_stream([&] {
    const int payload = payloads.front();
    payloads.pop_front();
    if (payload == 1) {
      throw std::runtime_error("invariant");
    }
    delivered.emplace_back(payload, q.now());
  });
  for (int i = 0; i < 4; ++i) {
    q.push(s, 1.0 + 0.5 * static_cast<double>(i / 2));
    payloads.push_back(i);
  }
  EXPECT_THROW(q.run_all(), std::runtime_error);
  EXPECT_EQ(q.executed(), 2u);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(pending_times_of(q), (std::vector<Time>{1.5, 1.5}));
  q.run_all();
  EXPECT_EQ(delivered, (std::vector<std::pair<int, Time>>{{0, 1.0}, {2, 1.5}, {3, 1.5}}));
  EXPECT_EQ(q.executed(), 4u);
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace pftk::sim
