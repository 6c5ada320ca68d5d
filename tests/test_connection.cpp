// Integration tests of the assembled Connection: a saturated Reno flow
// over configurable paths behaves like TCP should.
#include <gtest/gtest.h>

#include "exp/path_profile.hpp"
#include "obs/conn_event_trace.hpp"
#include "obs/event_loop_stats.hpp"
#include "sim/connection.hpp"
#include "trace/trace_recorder.hpp"

namespace pftk::sim {
namespace {

ConnectionConfig clean_path_config() {
  ConnectionConfig cfg;
  cfg.sender.advertised_window = 16.0;
  cfg.forward_link.propagation_delay = 0.05;
  cfg.reverse_link.propagation_delay = 0.05;
  cfg.seed = 7;
  return cfg;
}

TEST(Connection, LosslessFlowIsWindowLimited) {
  Connection conn(clean_path_config());
  const ConnectionSummary s = conn.run_for(60.0);
  // With no loss the flow settles at Wm per RTT: 16 packets / 0.1 s.
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.fast_retransmits, 0u);
  EXPECT_EQ(s.retransmissions, 0u);
  EXPECT_NEAR(s.send_rate, 160.0, 16.0);  // within 10%
  EXPECT_GT(s.packets_delivered, 0u);
}

TEST(Connection, DeliveredNeverExceedsSent) {
  ConnectionConfig cfg = clean_path_config();
  cfg.forward_loss = BernoulliLossSpec{0.05};
  Connection conn(cfg);
  const ConnectionSummary s = conn.run_for(300.0);
  EXPECT_LE(s.packets_delivered, s.packets_sent);
  EXPECT_GT(s.packets_sent, 0u);
}

TEST(Connection, LossReducesSendRate) {
  Connection clean(clean_path_config());
  const double clean_rate = clean.run_for(300.0).send_rate;

  ConnectionConfig lossy_cfg = clean_path_config();
  lossy_cfg.forward_loss = BernoulliLossSpec{0.05};
  Connection lossy(lossy_cfg);
  const double lossy_rate = lossy.run_for(300.0).send_rate;

  EXPECT_LT(lossy_rate, 0.8 * clean_rate);
}

TEST(Connection, HeavyLossProducesTimeouts) {
  ConnectionConfig cfg = clean_path_config();
  cfg.forward_loss = BernoulliLossSpec{0.10};
  Connection conn(cfg);
  const ConnectionSummary s = conn.run_for(600.0);
  EXPECT_GT(s.timeouts, 0u);
  EXPECT_GT(s.packets_sent, 0u);
}

TEST(Connection, ModerateLossTriggersFastRetransmitsWithLargeWindow) {
  ConnectionConfig cfg = clean_path_config();
  cfg.sender.advertised_window = 32.0;
  cfg.forward_loss = BernoulliLossSpec{0.01};
  Connection conn(cfg);
  const ConnectionSummary s = conn.run_for(600.0);
  EXPECT_GT(s.fast_retransmits, 0u);
}

TEST(Connection, SameSeedSameResult) {
  ConnectionConfig cfg = clean_path_config();
  cfg.forward_loss = BernoulliLossSpec{0.03};
  Connection a(cfg);
  Connection b(cfg);
  const ConnectionSummary sa = a.run_for(120.0);
  const ConnectionSummary sb = b.run_for(120.0);
  EXPECT_EQ(sa.packets_sent, sb.packets_sent);
  EXPECT_EQ(sa.packets_delivered, sb.packets_delivered);
  EXPECT_EQ(sa.timeouts, sb.timeouts);
}

TEST(Connection, DifferentSeedsDiffer) {
  ConnectionConfig cfg = clean_path_config();
  cfg.forward_loss = BernoulliLossSpec{0.03};
  Connection a(cfg);
  cfg.seed = 8;
  Connection b(cfg);
  const ConnectionSummary sa = a.run_for(300.0);
  const ConnectionSummary sb = b.run_for(300.0);
  EXPECT_NE(sa.packets_sent, sb.packets_sent);
}

TEST(Connection, RunForCanBeChained) {
  ConnectionConfig cfg = clean_path_config();
  cfg.forward_loss = BernoulliLossSpec{0.02};
  Connection conn(cfg);
  const ConnectionSummary first = conn.run_for(100.0);
  const ConnectionSummary second = conn.run_for(100.0);
  EXPECT_NEAR(first.duration, 100.0, 1e-9);
  EXPECT_NEAR(second.duration, 100.0, 1e-9);
  EXPECT_GT(second.packets_sent, 0u);
}

TEST(Connection, AckLossIsTolerated) {
  ConnectionConfig cfg = clean_path_config();
  cfg.reverse_loss = BernoulliLossSpec{0.05};
  Connection conn(cfg);
  const ConnectionSummary s = conn.run_for(300.0);
  // Cumulative ACKs make ACK loss mostly harmless: flow keeps moving.
  EXPECT_GT(s.packets_delivered, 1000u);
}

TEST(Connection, RateLimitedPathCapsThroughput) {
  ConnectionConfig cfg = clean_path_config();
  cfg.forward_link.rate_pps = 50.0;
  cfg.forward_queue = DropTailSpec{10};
  Connection conn(cfg);
  const ConnectionSummary s = conn.run_for(300.0);
  // Delivered rate cannot exceed the bottleneck.
  EXPECT_LE(s.throughput, 51.0);
  EXPECT_GT(s.throughput, 25.0);
}

TEST(Connection, ManicAlpsHourEventCountsArePinned) {
  // `pftk simulate manic alps 3600 7 --metrics-out`: a recorder, the
  // event trace and an event-loop sink, run in the CLI's 5-s slices.
  // The three logical counters are what cancel + schedule_at would
  // count, whatever the queue does inside; the heap diagnostics may only
  // fall (delivery streams left 7 heap entries and 4 slots).
  const exp::PathProfile profile = exp::profile_by_label("manic", "alps");
  Connection conn(exp::make_connection_config(profile, 7));
  trace::TraceRecorder recorder;
  conn.set_observer(&recorder);
  obs::ConnEventTrace etrace;
  obs::EventLoopStats loop;
  conn.attach_observability(&etrace, &loop);
  for (int slice = 0; slice < 720; ++slice) {
    (void)conn.run_for(5.0);
  }
  EXPECT_EQ(loop.scheduled, 124'130u);
  EXPECT_EQ(loop.executed, 77'113u);
  EXPECT_EQ(loop.cancelled, 47'016u);
  EXPECT_EQ(loop.compactions, 0u);
  EXPECT_LE(loop.heap_peak, 7u);
  EXPECT_LE(loop.slab_peak, 4u);
}

}  // namespace
}  // namespace pftk::sim
