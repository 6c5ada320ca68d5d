#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "obs/event_loop_stats.hpp"
#include "sim/fault_injector.hpp"
#include "sim/link.hpp"
#include "sim/packet.hpp"

namespace pftk::sim {
namespace {

struct Delivery {
  SeqNo seq;
  Time at;
};

struct LinkFixture {
  EventQueue queue;
  std::vector<Delivery> deliveries;

  std::unique_ptr<Link<Segment>> make(const LinkConfig& cfg,
                                      std::unique_ptr<LossModel> loss = nullptr,
                                      std::unique_ptr<QueuePolicy> policy = nullptr) {
    auto link = std::make_unique<Link<Segment>>(queue, cfg, Rng(1), std::move(loss),
                                                std::move(policy));
    link->set_deliver([this](const Segment& s, Time t) {
      deliveries.push_back({s.seq, t});
    });
    return link;
  }

  void send(Link<Segment>& link, SeqNo seq) {
    Segment s;
    s.seq = seq;
    link.send(s);
  }
};

TEST(Link, DeliversAfterPropagationDelay) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.propagation_delay = 0.25;
  auto link = f.make(cfg);
  f.send(*link, 7);
  f.queue.run_all();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].seq, 7u);
  EXPECT_DOUBLE_EQ(f.deliveries[0].at, 0.25);
}

TEST(Link, JitterNeverReorders) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.propagation_delay = 0.1;
  cfg.jitter = 0.05;
  auto link = f.make(cfg);
  for (SeqNo i = 0; i < 200; ++i) {
    f.send(*link, i);
  }
  f.queue.run_all();
  ASSERT_EQ(f.deliveries.size(), 200u);
  for (std::size_t i = 1; i < f.deliveries.size(); ++i) {
    EXPECT_LE(f.deliveries[i - 1].at, f.deliveries[i].at);
    EXPECT_EQ(f.deliveries[i].seq, i);
  }
}

TEST(Link, LossModelDropsPackets) {
  LinkFixture f;
  LinkConfig cfg;
  auto link = f.make(cfg, std::make_unique<BernoulliLoss>(0.5));
  for (SeqNo i = 0; i < 2000; ++i) {
    f.send(*link, i);
  }
  f.queue.run_all();
  const LinkStats& st = link->stats();
  EXPECT_EQ(st.offered, 2000u);
  EXPECT_NEAR(static_cast<double>(st.dropped_loss) / 2000.0, 0.5, 0.05);
  EXPECT_EQ(st.delivered + st.dropped_loss, st.offered);
}

TEST(Link, RateLimitSerializesPackets) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.propagation_delay = 0.0;
  cfg.rate_pps = 10.0;  // 0.1 s per packet
  auto link = f.make(cfg);
  for (SeqNo i = 0; i < 5; ++i) {
    f.send(*link, i);
  }
  f.queue.run_all();
  ASSERT_EQ(f.deliveries.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(f.deliveries[i].at, 0.1 * static_cast<double>(i + 1), 1e-9);
  }
}

TEST(Link, DropTailQueueOverflows) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.rate_pps = 1.0;
  auto link = f.make(cfg, nullptr, std::make_unique<DropTailPolicy>(3));
  for (SeqNo i = 0; i < 10; ++i) {
    f.send(*link, i);  // all at t=0: 1 in service + 3 queued max
  }
  f.queue.run_all();
  const LinkStats& st = link->stats();
  EXPECT_GT(st.dropped_queue, 0u);
  EXPECT_LT(st.delivered, 10u);
  EXPECT_EQ(st.delivered + st.dropped_queue, st.offered);
}

TEST(Link, BacklogReflectsQueuedPackets) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.rate_pps = 1.0;
  auto link = f.make(cfg);
  for (SeqNo i = 0; i < 4; ++i) {
    f.send(*link, i);
  }
  EXPECT_EQ(link->backlog(), 4u);
  f.queue.run_until(2.0);
  EXPECT_EQ(link->backlog(), 2u);
  f.queue.run_all();
  EXPECT_EQ(link->backlog(), 0u);
}

TEST(Link, SendWithoutCallbackThrows) {
  EventQueue q;
  Link<Segment> link(q, LinkConfig{}, Rng(1));
  Segment s;
  EXPECT_THROW(link.send(s), std::logic_error);
}

TEST(Link, InvalidConfigThrows) {
  // Negative or non-finite: a NaN delay used to pass validation and
  // schedule NaN delivery times.
  EventQueue q;
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (double LinkConfig::*field :
         {&LinkConfig::propagation_delay, &LinkConfig::jitter, &LinkConfig::rate_pps}) {
      LinkConfig cfg;
      cfg.*field = bad;
      EXPECT_THROW(Link<Segment>(q, cfg, Rng(1)), std::invalid_argument) << bad;
    }
  }
}

struct LinkRun {
  std::vector<Delivery> deliveries;
  LinkStats stats;
  obs::EventLoopStats loop;
};

/// Bursts of three sends every 10 ms through a jittered link that
/// duplicates and reorders, optionally under an always-FIFO tie-breaker.
LinkRun run_faulty_link(bool tie_breaker) {
  LinkRun run;
  EventQueue q;
  q.set_stats_sink(&run.loop);
  if (tie_breaker) {
    q.set_tie_breaker([](std::size_t) { return std::size_t{0}; });
  }
  LinkConfig cfg;
  cfg.propagation_delay = 0.1;
  cfg.jitter = 0.03;
  auto faults = std::make_unique<FaultInjector>(
      FaultSchedule::parse("dup@0+20:0.1:0.02;reorder@0+20:0.1:0.05"), Rng(9));
  Link<Segment> link(q, cfg, Rng(3), nullptr, nullptr, std::move(faults));
  link.set_deliver([&](const Segment& s, Time t) { run.deliveries.push_back({s.seq, t}); });
  SeqNo next = 0;
  TimerId bursts = 0;
  bursts = q.add_timer([&] {
    for (int i = 0; i < 3; ++i) {
      Segment s;
      s.seq = next++;
      link.send(s);
    }
    if (next < 6000) {
      q.arm_in(bursts, 0.01);
    }
  });
  q.arm_at(bursts, 0.0);
  q.run_all();
  run.stats = link.stats();
  return run;
}

TEST(Link, StreamDeliveriesMatchOneShotDeliveries) {
  // With a tie-breaker installed every delivery is a one-shot event, so
  // an always-0 chooser replays the one-shot order that streams must
  // reproduce, duplicate and reordered copies interleaved.
  const LinkRun streams = run_faulty_link(false);
  const LinkRun one_shots = run_faulty_link(true);
  ASSERT_EQ(streams.deliveries.size(), one_shots.deliveries.size());
  for (std::size_t i = 0; i < streams.deliveries.size(); ++i) {
    ASSERT_EQ(streams.deliveries[i].seq, one_shots.deliveries[i].seq) << i;
    ASSERT_EQ(streams.deliveries[i].at, one_shots.deliveries[i].at) << i;
  }
  EXPECT_GT(streams.stats.duplicated, 0u);
  EXPECT_EQ(streams.stats.delivered, 6000u + streams.stats.duplicated -
                                         streams.stats.dropped_fault);
  for (auto field : {&LinkStats::offered, &LinkStats::dropped_loss, &LinkStats::dropped_queue,
                     &LinkStats::dropped_fault, &LinkStats::duplicated, &LinkStats::delivered}) {
    EXPECT_EQ(streams.stats.*field, one_shots.stats.*field);
  }
  EXPECT_EQ(streams.loop.scheduled, one_shots.loop.scheduled);
  EXPECT_EQ(streams.loop.executed, one_shots.loop.executed);
  // The stream kept packets in flight out of the slab and the heap.
  EXPECT_LT(streams.loop.slab_peak, one_shots.loop.slab_peak);
  EXPECT_LT(streams.loop.heap_peak, one_shots.loop.heap_peak);
}

TEST(Link, ResetProcessesClearsStats) {
  LinkFixture f;
  auto link = f.make(LinkConfig{});
  f.send(*link, 1);
  f.queue.run_all();
  EXPECT_EQ(link->stats().offered, 1u);
  link->reset_processes();
  EXPECT_EQ(link->stats().offered, 0u);
}

}  // namespace
}  // namespace pftk::sim
