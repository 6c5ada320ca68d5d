// The connection-event trace's contract: a fixed-capacity ring that
// counts what it overwrites, emitters that mirror the sender's own
// counters exactly (TD = fast retransmits, RTO fires = timeouts), and —
// the tentpole guarantee — attaching observability never changes what a
// fixed-seed simulation does.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "obs/conn_event_trace.hpp"
#include "obs/event_loop_stats.hpp"
#include "sim/connection.hpp"

namespace pftk::obs {
namespace {

TEST(ConnEventTrace, RingWrapsOverwritingOldestAndCountsDrops) {
  ConnEventTrace trace(4);
  for (int i = 0; i < 6; ++i) {
    trace.record(static_cast<double>(i), ConnEventKind::kDelayedAckFire,
                 static_cast<double>(i));
  }
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 2u);
  EXPECT_EQ(trace.recorded(), 6u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest first: records 2..5 survive, 0 and 1 were overwritten.
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(i + 2));
  }
}

TEST(ConnEventTrace, ExactlyCapacityEventsDropNothing) {
  // The wraparound boundary itself: filling the ring to exactly its
  // capacity must keep every record and report zero drops.
  ConnEventTrace trace(4);
  for (int i = 0; i < 4; ++i) {
    trace.record(static_cast<double>(i), ConnEventKind::kDelayedAckFire,
                 static_cast<double>(i));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.recorded(), 4u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(i));
  }
}

TEST(ConnEventTrace, CapacityPlusOneDropsExactlyTheOldest) {
  // One past the boundary: precisely one drop, and it is record 0 — a
  // fencepost slip in the modulo arithmetic would evict the wrong slot
  // or miscount.
  ConnEventTrace trace(4);
  for (int i = 0; i < 5; ++i) {
    trace.record(static_cast<double>(i), ConnEventKind::kDelayedAckFire,
                 static_cast<double>(i));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 1u);
  EXPECT_EQ(trace.recorded(), 5u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(i + 1));
  }
}

TEST(ConnEventTrace, CountAndClear) {
  ConnEventTrace trace(8);
  trace.record(0.0, ConnEventKind::kSlowStartEnter);
  trace.record(1.0, ConnEventKind::kRtoFire, 1.0);
  trace.record(2.0, ConnEventKind::kRtoFire, 2.0);
  EXPECT_EQ(trace.count(ConnEventKind::kRtoFire), 2u);
  EXPECT_EQ(trace.count(ConnEventKind::kFastRetransmit), 0u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.capacity(), 8u);
}

TEST(ConnEventTrace, ZeroCapacityIsRejected) {
  EXPECT_THROW(ConnEventTrace trace(0), std::invalid_argument);
}

TEST(ConnEventTrace, EveryKindHasAStableNameRoundTrip) {
  for (int k = 0; k <= static_cast<int>(ConnEventKind::kTfrcNoFeedback); ++k) {
    const auto kind = static_cast<ConnEventKind>(k);
    const auto name = conn_event_name(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(conn_event_from_name(name), kind) << name;
  }
  EXPECT_THROW((void)conn_event_from_name("not_a_kind"), std::invalid_argument);
}

sim::ConnectionConfig lossy_config(std::uint64_t seed) {
  sim::ConnectionConfig config;
  config.sender.advertised_window = 16.0;
  config.forward_link.propagation_delay = 0.05;
  config.reverse_link.propagation_delay = 0.05;
  config.forward_loss = sim::BernoulliLossSpec{0.03};
  config.seed = seed;
  return config;
}

TEST(ConnEventTrace, SenderEmissionsMatchTheSendersOwnCounters) {
  // The summarize cross-check only works if the event stream and the
  // stats block count the same things: TD indications are exactly the
  // fast-retransmit events, timeout events exactly the RTO fires.
  sim::Connection conn(lossy_config(71));
  ConnEventTrace trace;
  conn.attach_observability(&trace);
  (void)conn.run_for(120.0);

  const auto& stats = conn.sender().stats();
  EXPECT_GT(stats.fast_retransmits + stats.timeouts, 0u);  // losses happened
  EXPECT_EQ(trace.count(ConnEventKind::kFastRetransmit), stats.fast_retransmits);
  EXPECT_EQ(trace.count(ConnEventKind::kRtoFire), stats.timeouts);
  EXPECT_EQ(trace.dropped(), 0u);
  // Every loss indication re-estimates ssthresh.
  EXPECT_EQ(trace.count(ConnEventKind::kSsthreshUpdate),
            stats.fast_retransmits + stats.timeouts);
}

TEST(ConnEventTrace, AttachingObservabilityIsBehavioruallyInvisible) {
  // Fixed seed, same config: a run with the full observability stack
  // attached must produce exactly the run a bare simulation produces.
  sim::Connection bare(lossy_config(7));
  const auto plain = bare.run_for(90.0);

  sim::Connection observed(lossy_config(7));
  ConnEventTrace trace;
  EventLoopStats loop;
  observed.attach_observability(&trace, &loop);
  const auto obs_run = observed.run_for(90.0);

  EXPECT_EQ(plain.packets_sent, obs_run.packets_sent);
  EXPECT_EQ(plain.packets_delivered, obs_run.packets_delivered);
  EXPECT_EQ(plain.retransmissions, obs_run.retransmissions);
  EXPECT_EQ(plain.fast_retransmits, obs_run.fast_retransmits);
  EXPECT_EQ(plain.timeouts, obs_run.timeouts);
  EXPECT_DOUBLE_EQ(plain.duration, obs_run.duration);
  EXPECT_GT(loop.executed, 0u);
  EXPECT_GE(loop.scheduled, loop.executed);
}

TEST(ConnEventTrace, FixedSeedYieldsAByteIdenticalEventStream) {
  std::vector<ConnEvent> first;
  for (int round = 0; round < 2; ++round) {
    sim::Connection conn(lossy_config(1998));
    ConnEventTrace trace;
    conn.attach_observability(&trace);
    (void)conn.run_for(60.0);
    const auto events = trace.events();
    ASSERT_FALSE(events.empty());
    if (round == 0) {
      first = events;
      continue;
    }
    ASSERT_EQ(events.size(), first.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].kind, first[i].kind);
      EXPECT_DOUBLE_EQ(events[i].t, first[i].t);
      EXPECT_DOUBLE_EQ(events[i].value, first[i].value);
      EXPECT_DOUBLE_EQ(events[i].aux, first[i].aux);
    }
  }
}

TEST(ConnEventTrace, DetachingStopsRecording) {
  sim::Connection conn(lossy_config(5));
  ConnEventTrace trace;
  conn.attach_observability(&trace);
  (void)conn.run_for(10.0);
  const std::size_t recorded = trace.size();
  ASSERT_GT(recorded, 0u);
  conn.attach_observability(nullptr, nullptr);
  (void)conn.run_for(10.0);
  EXPECT_EQ(trace.size(), recorded);
}

}  // namespace
}  // namespace pftk::obs
