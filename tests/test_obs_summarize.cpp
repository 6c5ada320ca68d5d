// The summarize engine's contract: the TD/TO taxonomy recovered from an
// event stream follows the paper's Section II rules (a TD indication is
// one fast retransmit; a TO sequence is a run of rto_fire events whose
// backoff level restarts at 1; depth buckets mirror Table 2's T1..T6+),
// it agrees exactly with the simulator's internal counters on a real
// run, and the --json rendering is byte-stable against a golden file.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/path_profile.hpp"
#include "obs/conn_event_trace.hpp"
#include "obs/export.hpp"
#include "obs/summarize.hpp"
#include "robust/json_line.hpp"
#include "sim/connection.hpp"

namespace pftk::obs {
namespace {

ConnEvent event(double t, ConnEventKind kind, double value = 0.0) {
  return ConnEvent{t, kind, value, 0.0};
}

TEST(ObsSummarize, EmptyStreamYieldsAllZeros) {
  const LossBreakdown bd = summarize_events({});
  EXPECT_EQ(bd.td, 0u);
  EXPECT_EQ(bd.to_sequences, 0u);
  EXPECT_EQ(bd.timeout_events, 0u);
  EXPECT_EQ(bd.loss_indications(), 0u);
  EXPECT_EQ(bd.max_backoff_level, 0);
  EXPECT_DOUBLE_EQ(bd.td_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(bd.to_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(bd.duration, 0.0);
  for (const auto n : bd.timeouts_by_depth) {
    EXPECT_EQ(n, 0u);
  }
}

TEST(ObsSummarize, SplitsTdFromToAndTracksSequenceDepth) {
  // FR, FR, then a two-deep timeout sequence (levels 1,2), recovery into
  // congestion avoidance, then a fresh one-deep sequence: td=2,
  // to_sequences=2, timeout_events=3, depth T1=1 T2=1, max backoff 2.
  const std::vector<ConnEvent> events = {
      event(1.0, ConnEventKind::kFastRetransmit),
      event(2.0, ConnEventKind::kFastRetransmit),
      event(3.0, ConnEventKind::kRtoFire, 1.0),
      event(4.0, ConnEventKind::kRtoFire, 2.0),
      event(5.0, ConnEventKind::kCongAvoidEnter),
      event(6.0, ConnEventKind::kRtoFire, 1.0),
  };
  const LossBreakdown bd = summarize_events(events);
  EXPECT_EQ(bd.td, 2u);
  EXPECT_EQ(bd.to_sequences, 2u);
  EXPECT_EQ(bd.timeout_events, 3u);
  EXPECT_EQ(bd.loss_indications(), 4u);
  EXPECT_EQ(bd.max_backoff_level, 2);
  EXPECT_EQ(bd.timeouts_by_depth[0], 1u);  // the trailing level-1 sequence
  EXPECT_EQ(bd.timeouts_by_depth[1], 1u);  // the level-1,2 sequence
  EXPECT_EQ(bd.timeouts_by_depth[2], 0u);
  EXPECT_EQ(bd.cong_avoid_entries, 1u);
  EXPECT_DOUBLE_EQ(bd.td_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(bd.to_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(bd.duration, 5.0);
}

TEST(ObsSummarize, BackToBackSequencesSplitOnLevelReset) {
  // Two timeout sequences with nothing between them: the level dropping
  // back to 1 is what separates them (the sender reset its backoff).
  const std::vector<ConnEvent> events = {
      event(1.0, ConnEventKind::kRtoFire, 1.0),
      event(2.0, ConnEventKind::kRtoFire, 2.0),
      event(3.0, ConnEventKind::kRtoFire, 3.0),
      event(4.0, ConnEventKind::kRtoFire, 1.0),
      event(5.0, ConnEventKind::kRtoFire, 2.0),
  };
  const LossBreakdown bd = summarize_events(events);
  EXPECT_EQ(bd.to_sequences, 2u);
  EXPECT_EQ(bd.timeout_events, 5u);
  EXPECT_EQ(bd.max_backoff_level, 3);
  EXPECT_EQ(bd.timeouts_by_depth[1], 1u);  // the open tail sequence (depth 2)
  EXPECT_EQ(bd.timeouts_by_depth[2], 1u);  // the first sequence (depth 3)
}

TEST(ObsSummarize, DeepSequencesAggregateIntoTheSixPlusBucket) {
  std::vector<ConnEvent> events;
  for (int level = 1; level <= 9; ++level) {
    events.push_back(event(static_cast<double>(level), ConnEventKind::kRtoFire,
                           static_cast<double>(level)));
  }
  const LossBreakdown bd = summarize_events(events);
  EXPECT_EQ(bd.to_sequences, 1u);
  EXPECT_EQ(bd.max_backoff_level, 9);
  EXPECT_EQ(bd.timeouts_by_depth[5], 1u);  // Table 2's "T6+" column
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(bd.timeouts_by_depth[k], 0u);
  }
}

TEST(ObsSummarize, TdEndsAnOpenTimeoutSequence) {
  const std::vector<ConnEvent> events = {
      event(1.0, ConnEventKind::kRtoFire, 1.0),
      event(2.0, ConnEventKind::kFastRetransmit),
      event(3.0, ConnEventKind::kRtoFire, 1.0),
  };
  const LossBreakdown bd = summarize_events(events);
  EXPECT_EQ(bd.td, 1u);
  EXPECT_EQ(bd.to_sequences, 2u);
  EXPECT_EQ(bd.timeouts_by_depth[0], 2u);
}

TEST(ObsSummarize, CountsAdjacentRegimeSignals) {
  const std::vector<ConnEvent> events = {
      event(0.0, ConnEventKind::kSlowStartEnter),
      event(1.0, ConnEventKind::kRwndClamp),
      event(2.0, ConnEventKind::kFaultDrop),
      event(3.0, ConnEventKind::kWatchdogTrip),
      event(4.0, ConnEventKind::kDelayedAckFire),  // ignored by the taxonomy
  };
  const LossBreakdown bd = summarize_events(events);
  EXPECT_EQ(bd.slow_start_entries, 1u);
  EXPECT_EQ(bd.rwnd_clamps, 1u);
  EXPECT_EQ(bd.fault_drops, 1u);
  EXPECT_EQ(bd.watchdog_trips, 1u);
  EXPECT_EQ(bd.loss_indications(), 0u);
}

TEST(ObsSummarize, AgreesExactlyWithTheSendersOwnCounters) {
  // The cross-check the module exists for: recomputing the TD/TO split
  // from the event stream must land on the simulator's internal
  // counters, not merely near them.
  sim::ConnectionConfig config;
  config.sender.advertised_window = 16.0;
  config.forward_link.propagation_delay = 0.05;
  config.reverse_link.propagation_delay = 0.05;
  config.forward_loss = sim::BernoulliLossSpec{0.04};
  config.seed = 23;
  sim::Connection conn(config);
  ConnEventTrace trace;
  conn.attach_observability(&trace);
  (void)conn.run_for(150.0);

  const auto events = trace.events();
  ASSERT_EQ(trace.dropped(), 0u) << "ring too small for an exact cross-check";
  const LossBreakdown bd = summarize_events(events);
  const auto& stats = conn.sender().stats();
  EXPECT_GT(bd.loss_indications(), 0u);
  EXPECT_EQ(bd.td, stats.fast_retransmits);
  EXPECT_EQ(bd.timeout_events, stats.timeouts);
  EXPECT_LE(bd.to_sequences, bd.timeout_events);
}

TEST(ObsSummarize, TextRenderingMentionsTheSplitAndDrops) {
  LossBreakdown bd;
  bd.td = 3;
  bd.to_sequences = 1;
  bd.timeout_events = 2;
  bd.max_backoff_level = 2;
  bd.timeouts_by_depth[1] = 1;
  bd.duration = 30.0;
  const std::string clean = render_breakdown_text(bd, "simulate", 0);
  EXPECT_NE(clean.find("loss-indication breakdown (simulate"), std::string::npos);
  EXPECT_NE(clean.find("TD 3 (75.0%)"), std::string::npos);
  EXPECT_NE(clean.find("TO sequences 1 (25.0%)"), std::string::npos);
  EXPECT_NE(clean.find("T2=1"), std::string::npos);
  EXPECT_NE(clean.find("T6+=0"), std::string::npos);
  EXPECT_EQ(clean.find("overwritten"), std::string::npos);
  EXPECT_EQ(clean.find("INDETERMINATE"), std::string::npos);

  // Overwritten events can hide either kind of indication, so the split
  // is indeterminate: no percentages, whatever the surviving counts say.
  const std::string text = render_breakdown_text(bd, "simulate", 5);
  EXPECT_NE(text.find("TD 3, TO sequences 1 [INDETERMINATE: 5 events dropped]"),
            std::string::npos);
  EXPECT_EQ(text.find('%'), std::string::npos);
  EXPECT_NE(text.find("T2=1"), std::string::npos);
  EXPECT_NE(text.find("5 events were overwritten"), std::string::npos);
}

TEST(ObsSummarize, JsonFractionsAreNullWhenEventsWereDropped) {
  LossBreakdown bd;
  bd.td = 3;
  bd.to_sequences = 1;
  bd.duration = 30.0;
  std::ostringstream clean;
  write_breakdown_json(clean, bd, "simulate", 0);
  std::ostringstream dropped;
  write_breakdown_json(dropped, bd, "simulate", 7);
  EXPECT_NE(clean.str().find("\"td_fraction\":0.750000,\"to_fraction\":0.250000,"),
            std::string::npos);
  // Only the two fractions and the drop count differ.
  std::string want = clean.str();
  want.replace(want.find("0.750000"), 8, "null");
  want.replace(want.find("0.250000"), 8, "null");
  want.replace(want.find("\"events_dropped\":0"), 18, "\"events_dropped\":7");
  EXPECT_EQ(dropped.str(), want);
}

TEST(ObsSummarize, JsonEscapesTheSource) {
  // A merged source is free text; a quote, newline or control byte in it
  // must not break the JSON line.
  const std::string source = "a\"b\nc\x01" "d";
  std::ostringstream os;
  write_breakdown_json(os, LossBreakdown{}, source, 0);
  EXPECT_EQ(robust::json::Object(os.str()).str("source"), source);
}

TEST(ObsSummarize, GoldenJsonForFixedSeedFig8ShortTrace) {
  // Replicates `pftk simulate manic alps 30 42 --trace-events E` followed
  // by `pftk obs summarize E --json` in-process and compares the JSON
  // byte-for-byte against the checked-in golden. A diff means either the
  // simulation, the event emission, the JSONL round trip, or the
  // breakdown formatting changed — all of which must be deliberate.
  const auto profile = exp::profile_by_label("manic", "alps");
  sim::Connection conn(exp::make_connection_config(profile, 42));
  ConnEventTrace trace;
  conn.attach_observability(&trace);
  (void)conn.run_for(30.0);

  // Same bundle shape the CLI writes for --trace-events: events only.
  ObsBundle bundle;
  bundle.source = "simulate";
  bundle.events = trace.events();
  bundle.events_dropped = trace.dropped();
  std::stringstream jsonl;
  write_obs_jsonl(jsonl, bundle);
  ObsReadReport report;
  const ObsBundle back = read_obs_jsonl(jsonl, &report);
  ASSERT_TRUE(report.clean());

  std::ostringstream actual;
  write_breakdown_json(actual, summarize_events(back.events), back.source,
                       back.events_dropped);

  const std::string golden_path =
      std::string(PFTK_TEST_DATA_DIR) + "/obs_summarize_fig8.golden.json";
  std::ifstream is(golden_path);
  ASSERT_TRUE(is) << "missing golden file " << golden_path;
  std::ostringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(actual.str(), expected.str());
}

MetricValue counter(const std::string& name, double value) {
  MetricValue m;
  m.name = name;
  m.kind = MetricKind::kCounter;
  m.value = value;
  return m;
}

TEST(ObsMergeBundles, ShardMergeSemanticsAcrossSnapshotFiles) {
  // The multi-file `pftk obs summarize a.jsonl b.jsonl` path: worker
  // snapshots fold together exactly like shards of one process —
  // counters sum, gauges max, histogram buckets sum, event streams
  // append, drop counts sum.
  ObsBundle a;
  a.source = "serve";
  a.metrics.metrics.push_back(counter("pftk_serve_served_total", 100.0));
  MetricValue gauge;
  gauge.name = "pftk_serve_queue_depth";
  gauge.kind = MetricKind::kGauge;
  gauge.value = 3.0;
  a.metrics.metrics.push_back(gauge);
  MetricValue hist;
  hist.name = "pftk_serve_latency_seconds";
  hist.kind = MetricKind::kHistogram;
  hist.bounds = {1.0};
  hist.buckets = {2, 1};
  hist.count = 3;
  hist.sum = 2.5;
  a.metrics.metrics.push_back(hist);
  a.events.push_back(ConnEvent{1.0, ConnEventKind::kFastRetransmit, 0.0, 0.0});
  a.events_dropped = 1;

  ObsBundle b;
  b.source = "serve";
  b.metrics.metrics.push_back(counter("pftk_serve_served_total", 50.0));
  b.metrics.metrics.push_back(counter("pftk_serve_shed_total", 7.0));
  gauge.value = 5.0;
  b.metrics.metrics.push_back(gauge);
  hist.buckets = {0, 4};
  hist.count = 4;
  hist.sum = 8.0;
  b.metrics.metrics.push_back(hist);
  b.events.push_back(ConnEvent{2.0, ConnEventKind::kRtoFire, 1.0, 0.0});
  b.events_dropped = 2;

  ObsBundle merged;
  merge_obs_bundles(merged, a);
  merge_obs_bundles(merged, b);

  EXPECT_EQ(merged.source, "serve");  // identical sources do not repeat
  const MetricValue* served = merged.metrics.find("pftk_serve_served_total");
  ASSERT_NE(served, nullptr);
  EXPECT_DOUBLE_EQ(served->value, 150.0);
  const MetricValue* shed = merged.metrics.find("pftk_serve_shed_total");
  ASSERT_NE(shed, nullptr);  // metrics only one worker saw survive
  EXPECT_DOUBLE_EQ(shed->value, 7.0);
  const MetricValue* depth = merged.metrics.find("pftk_serve_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->value, 5.0);  // gauges merge by max, not sum
  const MetricValue* lat = merged.metrics.find("pftk_serve_latency_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 7u);
  EXPECT_EQ(lat->buckets, (std::vector<std::uint64_t>{2, 5}));
  EXPECT_DOUBLE_EQ(lat->sum, 10.5);
  ASSERT_EQ(merged.events.size(), 2u);
  EXPECT_EQ(merged.events_dropped, 3u);

  // A differing source labels the merged bundle as such, and the merged
  // result survives a JSONL round trip intact.
  ObsBundle sup;
  sup.source = "supervisor";
  sup.metrics.metrics.push_back(counter("pftk_sup_restarts_total", 2.0));
  merge_obs_bundles(merged, sup);
  EXPECT_EQ(merged.source, "serve+supervisor");

  std::stringstream jsonl;
  write_obs_jsonl(jsonl, merged);
  ObsReadReport report;
  const ObsBundle back = read_obs_jsonl(jsonl, &report);
  ASSERT_TRUE(report.clean());
  EXPECT_EQ(back.source, "serve+supervisor");
  const MetricValue* back_served =
      back.metrics.find("pftk_serve_served_total");
  ASSERT_NE(back_served, nullptr);
  EXPECT_DOUBLE_EQ(back_served->value, 150.0);
  EXPECT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events_dropped, 3u);
}

TEST(ObsMergeBundles, MismatchedKindsForSharedNameAreRejected) {
  ObsBundle a;
  a.metrics.metrics.push_back(counter("pftk_serve_served_total", 1.0));
  ObsBundle b;
  MetricValue g;
  g.name = "pftk_serve_served_total";
  g.kind = MetricKind::kGauge;
  g.value = 1.0;
  b.metrics.metrics.push_back(g);
  ObsBundle merged;
  merge_obs_bundles(merged, a);
  EXPECT_THROW(merge_obs_bundles(merged, b), std::invalid_argument);
}

}  // namespace
}  // namespace pftk::obs
