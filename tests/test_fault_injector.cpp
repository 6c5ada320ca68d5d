// The fault-injection layer: schedule grammar, per-packet verdicts, and
// the determinism contract (same seed + same schedule => byte-identical
// traces; an empty or inactive schedule perturbs nothing).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/connection.hpp"
#include "sim/fault_injector.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_recorder.hpp"

namespace pftk::sim {
namespace {

TEST(FaultSchedule, ParsesSingleBlackout) {
  const FaultSchedule s = FaultSchedule::parse("blackout@120+5");
  ASSERT_EQ(s.faults.size(), 1u);
  EXPECT_EQ(s.faults[0].kind, FaultKind::kBlackout);
  EXPECT_DOUBLE_EQ(s.faults[0].start, 120.0);
  EXPECT_DOUBLE_EQ(s.faults[0].duration, 5.0);
  EXPECT_EQ(s.faults[0].count, 0u);
}

TEST(FaultSchedule, ParsesPacketCountedBlackout) {
  const FaultSchedule s = FaultSchedule::parse("blackout@30#20");
  ASSERT_EQ(s.faults.size(), 1u);
  EXPECT_DOUBLE_EQ(s.faults[0].start, 30.0);
  EXPECT_DOUBLE_EQ(s.faults[0].duration, 0.0);
  EXPECT_EQ(s.faults[0].count, 20u);
}

TEST(FaultSchedule, ParsesEveryKindWithParameters) {
  const FaultSchedule s = FaultSchedule::parse(
      "blackout@100+5;loss@200+60:0.5;dup@0+3600:0.01:0.02;"
      "reorder@0+3600:0.02:0.15;delay@500+10:0.4");
  ASSERT_EQ(s.faults.size(), 5u);
  EXPECT_EQ(s.faults[1].kind, FaultKind::kLoss);
  EXPECT_DOUBLE_EQ(s.faults[1].rate, 0.5);
  EXPECT_EQ(s.faults[2].kind, FaultKind::kDuplicate);
  EXPECT_DOUBLE_EQ(s.faults[2].rate, 0.01);
  EXPECT_DOUBLE_EQ(s.faults[2].magnitude, 0.02);
  EXPECT_EQ(s.faults[3].kind, FaultKind::kReorder);
  EXPECT_DOUBLE_EQ(s.faults[3].magnitude, 0.15);
  // A delay spike's single parameter is the magnitude, not a rate.
  EXPECT_EQ(s.faults[4].kind, FaultKind::kDelaySpike);
  EXPECT_DOUBLE_EQ(s.faults[4].magnitude, 0.4);
}

TEST(FaultSchedule, DescribeRoundTrips) {
  const std::string text =
      "blackout@100+5;loss@200+60:0.5;dup@0+3600:0.01:0.02;"
      "reorder@0+3600:0.02:0.15;delay@500+10:0.4;blackout@30#20";
  const FaultSchedule s = FaultSchedule::parse(text);
  const FaultSchedule reparsed = FaultSchedule::parse(s.describe());
  EXPECT_EQ(reparsed.describe(), s.describe());
  ASSERT_EQ(reparsed.faults.size(), s.faults.size());
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    EXPECT_EQ(reparsed.faults[i].kind, s.faults[i].kind) << i;
    EXPECT_DOUBLE_EQ(reparsed.faults[i].start, s.faults[i].start) << i;
    EXPECT_DOUBLE_EQ(reparsed.faults[i].duration, s.faults[i].duration) << i;
    EXPECT_EQ(reparsed.faults[i].count, s.faults[i].count) << i;
    EXPECT_DOUBLE_EQ(reparsed.faults[i].rate, s.faults[i].rate) << i;
    EXPECT_DOUBLE_EQ(reparsed.faults[i].magnitude, s.faults[i].magnitude) << i;
  }
}

TEST(FaultSchedule, RejectsMalformedInput) {
  EXPECT_THROW((void)FaultSchedule::parse("blackout120+5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("eclipse@120+5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("blackout@abc"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("blackout@120"), std::invalid_argument)
      << "a window or a packet count is required";
  EXPECT_THROW((void)FaultSchedule::parse("loss@0+10:1.5"), std::invalid_argument)
      << "rates above 1 are invalid";
  EXPECT_THROW((void)FaultSchedule::parse("loss@0+10#5:0.5"), std::invalid_argument)
      << "packet counts apply to blackouts only";
  EXPECT_THROW((void)FaultSchedule::parse("delay@0+10"), std::invalid_argument)
      << "a delay spike needs a magnitude";
  EXPECT_THROW((void)FaultSchedule::parse("blackout@0#2.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("blackout@-5+10"), std::invalid_argument);
}

TEST(FaultSchedule, EmptyTextParsesToEmptySchedule) {
  EXPECT_TRUE(FaultSchedule::parse("").empty());
}

TEST(FaultInjector, WindowActivation) {
  FaultInjector inj(FaultSchedule::parse("loss@10+5:1"), Rng(1));
  EXPECT_FALSE(inj.on_packet(9.9).drop);
  EXPECT_TRUE(inj.on_packet(10.0).drop);
  EXPECT_TRUE(inj.on_packet(14.9).drop);
  EXPECT_FALSE(inj.on_packet(15.0).drop);
  EXPECT_EQ(inj.stats().offered, 4u);
  EXPECT_EQ(inj.stats().dropped_loss, 2u);
}

TEST(FaultInjector, PacketCountedBlackoutDropsExactlyN) {
  FaultInjector inj(FaultSchedule::parse("blackout@1#3"), Rng(1));
  EXPECT_FALSE(inj.on_packet(0.5).drop);  // before activation
  int dropped = 0;
  for (int i = 0; i < 10; ++i) {
    dropped += inj.on_packet(2.0 + 0.1 * i).drop ? 1 : 0;
  }
  EXPECT_EQ(dropped, 3);
  EXPECT_EQ(inj.stats().dropped_blackout, 3u);
  EXPECT_EQ(inj.stats().total_dropped(), 3u);
}

TEST(FaultInjector, DuplicationVerdict) {
  FaultInjector inj(FaultSchedule::parse("dup@0+10:1:0.02"), Rng(1));
  const FaultVerdict v = inj.on_packet(1.0);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.extra_copies, 1u);
  EXPECT_DOUBLE_EQ(v.duplicate_lag, 0.02);
  EXPECT_EQ(inj.stats().duplicated, 1u);
}

TEST(FaultInjector, ReorderVerdictExemptsFifo) {
  FaultInjector inj(FaultSchedule::parse("reorder@0+10:1:0.05"), Rng(1));
  const FaultVerdict v = inj.on_packet(1.0);
  EXPECT_FALSE(v.drop);
  EXPECT_DOUBLE_EQ(v.extra_delay, 0.05);
  EXPECT_TRUE(v.exempt_fifo);
  EXPECT_EQ(inj.stats().reordered, 1u);
}

TEST(FaultInjector, DelaySpikeHitsEveryPacketInWindow) {
  FaultInjector inj(FaultSchedule::parse("delay@0+10:0.4"), Rng(1));
  for (int i = 0; i < 5; ++i) {
    const FaultVerdict v = inj.on_packet(1.0 + i);
    EXPECT_DOUBLE_EQ(v.extra_delay, 0.4);
    EXPECT_FALSE(v.exempt_fifo);
  }
  EXPECT_EQ(inj.stats().delayed, 5u);
}

TEST(FaultInjector, ResetRestoresBudgetsAndStats) {
  FaultInjector inj(FaultSchedule::parse("blackout@0#2"), Rng(1));
  (void)inj.on_packet(1.0);
  (void)inj.on_packet(1.1);
  EXPECT_FALSE(inj.on_packet(1.2).drop);  // budget exhausted
  inj.reset();
  EXPECT_EQ(inj.stats().offered, 0u);
  EXPECT_TRUE(inj.on_packet(1.3).drop);  // budget restored
}

ConnectionConfig faulted_config(const std::string& schedule) {
  ConnectionConfig cfg;
  cfg.sender.advertised_window = 16.0;
  cfg.forward_link.propagation_delay = 0.05;
  cfg.reverse_link.propagation_delay = 0.05;
  cfg.forward_loss = BernoulliLossSpec{0.01};
  cfg.forward_faults = FaultSchedule::parse(schedule);
  cfg.seed = 42;
  return cfg;
}

std::string traced_run(const ConnectionConfig& cfg, double duration) {
  Connection conn(cfg);
  trace::TraceRecorder recorder;
  conn.set_observer(&recorder);
  (void)conn.run_for(duration);
  return trace::format_trace(recorder.events());
}

TEST(FaultInjector, SameSeedAndScheduleYieldByteIdenticalTraces) {
  const ConnectionConfig cfg =
      faulted_config("blackout@20+2;loss@40+20:0.3;dup@0+120:0.02:0.01");
  EXPECT_EQ(traced_run(cfg, 120.0), traced_run(cfg, 120.0));
}

TEST(FaultInjector, InactiveScheduleDoesNotPerturbTheRun) {
  // A schedule entirely after the run's end consumes no randomness, so
  // the trace matches the no-fault-layer run byte for byte.
  ConnectionConfig clean = faulted_config("");
  clean.forward_faults = FaultSchedule{};
  const ConnectionConfig dormant = faulted_config("blackout@5000+10");
  EXPECT_EQ(traced_run(clean, 60.0), traced_run(dormant, 60.0));
}

TEST(FaultInjector, BlackoutForcesTimeouts) {
  // A 5-s outage outlives the RTO, so the sender must time out.
  const ConnectionConfig cfg = faulted_config("blackout@30+5");
  Connection conn(cfg);
  const ConnectionSummary s = conn.run_for(120.0);
  EXPECT_GT(s.timeouts, 0u);
  EXPECT_GT(s.forward_faults.dropped_blackout, 0u);
  EXPECT_EQ(s.forward_faults.offered, s.packets_sent);
}

TEST(FaultInjector, AckPathLossIsCountedSeparately) {
  ConnectionConfig cfg = faulted_config("");
  cfg.forward_faults = FaultSchedule{};
  cfg.reverse_faults = FaultSchedule::parse("loss@0+300:0.3");
  Connection conn(cfg);
  const ConnectionSummary s = conn.run_for(300.0);
  EXPECT_GT(s.reverse_faults.dropped_loss, 0u);
  EXPECT_EQ(s.forward_faults.offered, 0u);
  // Cumulative ACKs keep the flow moving despite heavy ACK loss.
  EXPECT_GT(s.packets_delivered, 1000u);
}

}  // namespace
}  // namespace pftk::sim
