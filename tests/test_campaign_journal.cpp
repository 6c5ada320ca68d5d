// Journal entries round-trip byte-exactly, and replay recovers the
// ordered valid prefix of a torn (killed mid-append) file.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "exp/campaign/campaign_journal.hpp"
#include "robust/durable_file.hpp"
#include "robust/failpoint.hpp"

namespace pftk::exp::campaign {
namespace {

JournalEntry ok_entry(std::size_t index) {
  JournalEntry entry;
  entry.index = index;
  entry.key = "a->b/s" + std::to_string(index) + "/clean/full";
  entry.ok = true;
  entry.attempts = 1;
  entry.metrics.packets_sent = 1234;
  entry.metrics.send_rate = 12.34;
  entry.metrics.p = 0.0123456789012345678;  // exercises %.17g round-trip
  entry.metrics.rtt = 0.2;
  entry.metrics.t0 = 2.5;
  entry.metrics.predicted = 1500.75;
  entry.metrics.forward_faults.offered = 1000;
  entry.metrics.forward_faults.dropped_blackout = 7;
  entry.metrics.reverse_faults.offered = 500;
  entry.metrics.reverse_faults.dropped_loss = 3;
  return entry;
}

JournalEntry failed_entry(std::size_t index) {
  JournalEntry entry;
  entry.index = index;
  entry.key = "a->b/s" + std::to_string(index) + "/dark/full";
  entry.ok = false;
  entry.attempts = 3;
  entry.failure_class = FailureClass::kTransient;
  entry.failure_kind = FailureKind::kWatchdogStall;
  entry.error = "watchdog: stall \"quoted\"\nwith newline, \\backslash and \x01";
  return entry;
}

TEST(CampaignJournal, OkEntryRoundTrips) {
  const JournalEntry entry = ok_entry(0);
  const JournalEntry parsed = JournalEntry::from_json(entry.to_json());
  EXPECT_EQ(parsed.index, entry.index);
  EXPECT_EQ(parsed.key, entry.key);
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.attempts, entry.attempts);
  EXPECT_EQ(parsed.metrics.packets_sent, entry.metrics.packets_sent);
  EXPECT_DOUBLE_EQ(parsed.metrics.p, entry.metrics.p);
  EXPECT_DOUBLE_EQ(parsed.metrics.predicted, entry.metrics.predicted);
  EXPECT_EQ(parsed.metrics.forward_faults.dropped_blackout, 7u);
  EXPECT_EQ(parsed.metrics.reverse_faults.dropped_loss, 3u);
  // Re-serialization is byte-identical (the determinism contract).
  EXPECT_EQ(parsed.to_json(), entry.to_json());
}

TEST(CampaignJournal, FailedEntryRoundTripsWithEscapes) {
  const JournalEntry entry = failed_entry(4);
  const JournalEntry parsed = JournalEntry::from_json(entry.to_json());
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.failure_class, FailureClass::kTransient);
  EXPECT_EQ(parsed.failure_kind, FailureKind::kWatchdogStall);
  EXPECT_EQ(parsed.error, entry.error);
  EXPECT_EQ(parsed.to_json(), entry.to_json());
}

TEST(CampaignJournal, ReadsEscapesAndIndicesExactly) {
  // \u0001 is the byte 0x01 and the item index is an exact integer; a
  // fractional or signed index is a bad line, not a rounded one.
  const std::string line =
      "{\"item\":9007199254740993,\"key\":\"k\\u0001\",\"status\":\"failed\","
      "\"attempts\":2,\"class\":\"transient\",\"kind\":\"io_error\",\"error\":\"e\"}";
  const JournalEntry entry = JournalEntry::from_json(line);
  EXPECT_EQ(entry.index, 9007199254740993u);
  EXPECT_EQ(entry.key, "k\x01");
  std::string fractional = line;
  fractional.replace(fractional.find("9007199254740993"), 16, "1.5");
  EXPECT_THROW((void)JournalEntry::from_json(fractional), std::invalid_argument);
}

TEST(CampaignJournal, MalformedLinesThrow) {
  EXPECT_THROW((void)JournalEntry::from_json("{\"item\":0"), std::invalid_argument);
  EXPECT_THROW((void)JournalEntry::from_json("not json"), std::invalid_argument);
  EXPECT_THROW((void)JournalEntry::from_json("{\"item\":0,\"key\":\"k\"}"),
               std::invalid_argument);  // missing status
}

TEST(CampaignJournal, ReplayReadsOrderedPrefix) {
  std::string text = ok_entry(0).to_json() + "\n" + failed_entry(1).to_json() +
                     "\n" + ok_entry(2).to_json() + "\n";
  std::istringstream in(text);
  const JournalReplay replay = replay_journal(in);
  ASSERT_EQ(replay.entries.size(), 3u);
  EXPECT_FALSE(replay.truncated_tail);
  EXPECT_EQ(replay.valid_bytes, text.size());
  EXPECT_TRUE(replay.entries[0].ok);
  EXPECT_FALSE(replay.entries[1].ok);
}

TEST(CampaignJournal, ReplayDropsTornTail) {
  const std::string good = ok_entry(0).to_json() + "\n" + ok_entry(1).to_json() + "\n";
  // A kill mid-append leaves a partial line with no newline.
  std::istringstream in(good + "{\"item\":2,\"key\":\"a-");
  const JournalReplay replay = replay_journal(in);
  ASSERT_EQ(replay.entries.size(), 2u);
  EXPECT_TRUE(replay.truncated_tail);
  EXPECT_EQ(replay.valid_bytes, good.size());
}

TEST(CampaignJournal, ReplayDropsCompleteLineWithoutNewline) {
  // Even a parseable final line is torn if its newline never hit disk.
  const std::string good = ok_entry(0).to_json() + "\n";
  std::istringstream in(good + ok_entry(1).to_json());
  const JournalReplay replay = replay_journal(in);
  ASSERT_EQ(replay.entries.size(), 1u);
  EXPECT_TRUE(replay.truncated_tail);
  EXPECT_EQ(replay.valid_bytes, good.size());
}

TEST(CampaignJournal, ReplayRecoversPrefixAtEveryTornByteOffset) {
  // Exhaustive torn-tail sweep: truncate the last record (an ok entry and
  // a failure entry with escapes) at every byte offset, including offset
  // 0 (nothing of it hit disk) and full-length-minus-newline. Every
  // truncation must replay to exactly the two complete leading entries.
  const std::string good =
      ok_entry(0).to_json() + "\n" + failed_entry(1).to_json() + "\n";
  for (const JournalEntry& last : {ok_entry(2), failed_entry(2)}) {
    const std::string last_line = last.to_json() + "\n";
    for (std::size_t cut = 0; cut < last_line.size(); ++cut) {
      std::istringstream in(good + last_line.substr(0, cut));
      const JournalReplay replay = replay_journal(in);
      ASSERT_EQ(replay.entries.size(), 2u) << "cut at byte " << cut;
      EXPECT_EQ(replay.valid_bytes, good.size()) << "cut at byte " << cut;
      EXPECT_EQ(replay.truncated_tail, cut != 0) << "cut at byte " << cut;
      EXPECT_EQ(replay.entries[1].key, failed_entry(1).key);
    }
    // The un-truncated control: all three entries replay.
    std::istringstream in(good + last_line);
    EXPECT_EQ(replay_journal(in).entries.size(), 3u);
  }
}

TEST(CampaignJournal, ReplayRecoversFromFailpointGeneratedTornTails) {
  // The same sweep produced the way production produces it: a
  // DurableAppender with an armed short_write failpoint emits `arg`
  // bytes of the final record and fails — the replay result must match
  // the hand-truncated fixture byte for byte.
  const std::string good =
      ok_entry(0).to_json() + "\n" + failed_entry(1).to_json() + "\n";
  const std::string last_line = ok_entry(2).to_json() + "\n";
  const std::string path = ::testing::TempDir() + "pftk_journal_failpoint.jsonl";
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                last_line.size() / 2, last_line.size() - 1}) {
    std::remove(path.c_str());
    robust::FailpointRegistry::instance().disarm_all();
    robust::FailpointRegistry::instance().arm_specs(
        "journal.append:after=2:action=short_write:arg=" + std::to_string(cut));
    {
      robust::DurableAppender::Options options;
      options.truncate = true;
      robust::DurableAppender appender(path, options);
      appender.append_line(ok_entry(0).to_json());
      appender.append_line(failed_entry(1).to_json());
      EXPECT_THROW(appender.append_line(ok_entry(2).to_json()),
                   robust::IoError);
    }
    robust::FailpointRegistry::instance().disarm_all();
    const JournalReplay replay = replay_journal_file(path);
    ASSERT_EQ(replay.entries.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(replay.valid_bytes, good.size()) << "cut at byte " << cut;
    EXPECT_EQ(replay.truncated_tail, cut != 0) << "cut at byte " << cut;
  }
  std::remove(path.c_str());
}

TEST(CampaignJournal, ReplayRejectsOutOfOrderEntries) {
  std::istringstream in(ok_entry(0).to_json() + "\n" + ok_entry(2).to_json() + "\n");
  EXPECT_THROW((void)replay_journal(in), std::invalid_argument);
}

TEST(CampaignJournal, MissingFileReplaysEmpty) {
  const JournalReplay replay = replay_journal_file("/nonexistent/journal.jsonl");
  EXPECT_TRUE(replay.entries.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
}

}  // namespace
}  // namespace pftk::exp::campaign
