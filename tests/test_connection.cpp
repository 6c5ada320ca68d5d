// Integration tests of the assembled Connection: a saturated Reno flow
// over configurable paths behaves like TCP should.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/path_profile.hpp"
#include "mc/digest.hpp"
#include "obs/conn_event_trace.hpp"
#include "obs/event_loop_stats.hpp"
#include "sim/connection.hpp"
#include "trace/trace_io.hpp"
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

/// The paths a snapshot must carry: every loss process, both queue
/// policies and a fault schedule whose generators are seeded.
std::vector<std::pair<const char*, ConnectionConfig>> snapshot_paths() {
  std::vector<std::pair<const char*, ConnectionConfig>> paths;
  const auto add = [&paths](const char* name, auto&& edit) {
    ConnectionConfig cfg = clean_path_config();
    cfg.sender.timer_tick = 0.1;
    edit(cfg);
    paths.emplace_back(name, std::move(cfg));
  };
  add("bernoulli", [](ConnectionConfig& c) {
    c.forward_loss = BernoulliLossSpec{0.03};
    c.reverse_loss = BernoulliLossSpec{0.01};
  });
  add("burst", [](ConnectionConfig& c) { c.forward_loss = BurstLossSpec{0.02, 0.1}; });
  add("mixed_burst",
      [](ConnectionConfig& c) { c.forward_loss = MixedBurstLossSpec{0.02, 0.3, 0.5, 0.1}; });
  add("gilbert_elliott",
      [](ConnectionConfig& c) { c.forward_loss = GilbertElliottLossSpec{0.01, 0.3, 0.8}; });
  add("oracle", [](ConnectionConfig& c) {
    // A pure function of time: the oracle holds no state of its own.
    c.forward_loss = OracleLossSpec{[](Time t) { return std::fmod(t * 1000.0, 37.0) < 1.5; }};
  });
  add("droptail", [](ConnectionConfig& c) {
    c.forward_link.rate_pps = 40.0;
    c.forward_link.jitter = 0.004;
    c.forward_queue = DropTailSpec{6};
  });
  add("red", [](ConnectionConfig& c) {
    c.forward_link.rate_pps = 40.0;
    c.forward_queue = RedSpec{RedPolicy::Config{2.0, 6.0, 0.2, 0.2, 12}};
  });
  add("dup_reorder", [](ConnectionConfig& c) {
    c.forward_faults = FaultSchedule::parse(
        "dup@0+200:0.05:0.01;reorder@0+200:0.05:0.05;loss@5+100:0.03;blackout@40#3");
    c.reverse_faults = FaultSchedule::parse("dup@0+200:0.03:0.002;reorder@10+50:0.05:0.02");
  });
  return paths;
}

/// What a run leaves from some point on: the trace bytes it recorded
/// after `from` events and the connection's digest at its end.
std::pair<std::string, std::string> run_outcome(const Connection& conn,
                                                const trace::TraceRecorder& recorder,
                                                std::size_t from) {
  const auto& events = recorder.events();
  return {trace::format_trace(std::span(events).subspan(from)),
          mc::digest_connection(conn).hex()};
}

TEST(ConnectionSnapshot, RestoredRunRepeatsTheTraceAndEndState) {
  // Saved between runs (at 20 s) or from the inspector mid-run (after
  // event 3,000), run on to 150 s, restored and run again: the second
  // run must write the same trace bytes and end in the same state.
  for (const auto& [name, cfg] : snapshot_paths()) {
    for (const bool mid_run : {false, true}) {
      Connection conn(cfg);
      trace::TraceRecorder recorder;
      conn.set_observer(&recorder);
      Connection::State saved;
      std::size_t saved_events = 0;
      bool have_saved = false;
      const auto save = [&] {
        conn.save(saved);
        saved_events = recorder.events().size();
        have_saved = true;
      };
      if (mid_run) {
        conn.event_queue().set_inspector([&] {
          if (!have_saved && conn.event_queue().executed() == 3000) {
            save();
          }
        });
      } else {
        (void)conn.run_until(20.0);
        save();
      }
      (void)conn.run_until(150.0);
      ASSERT_TRUE(have_saved) << name;
      const auto first = run_outcome(conn, recorder, saved_events);

      conn.restore(saved);
      recorder.clear();
      (void)conn.run_until(150.0);
      const auto second = run_outcome(conn, recorder, 0);
      EXPECT_GT(first.first.size(), 10'000u) << name;
      EXPECT_EQ(first.first, second.first)
          << name << (mid_run ? " (mid-run)" : "") << ": trace bytes differ";
      EXPECT_EQ(first.second, second.second)
          << name << (mid_run ? " (mid-run)" : "") << ": end states differ";
    }
  }
}

TEST(ConnectionSnapshot, RestoresOnlyIntoTheConnectionThatSavedIt) {
  Connection a(clean_path_config());
  Connection b(clean_path_config());
  Connection::State state;
  a.save(state);
  EXPECT_THROW(b.restore(state), std::logic_error);
  a.enable_watchdog();
  EXPECT_THROW(a.save(state), std::logic_error);
}

}  // namespace
}  // namespace pftk::sim
