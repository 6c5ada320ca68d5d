// Bounded model checker end-to-end: exhaustive enumeration with
// -j-independent deterministic state counts, visited-state pruning that
// provably cuts work, counterexamples whose replay reproduces the
// violation byte-for-byte, and the pftk-mc/1 trace format round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mc/digest.hpp"
#include "mc/explorer.hpp"
#include "mc/trace_file.hpp"
#include "sim/connection.hpp"
#include "sim/tcp_reno_sender.hpp"

namespace pftk::mc {
namespace {

/// The documented small config (EXPERIMENTS.md "Exploration"): one flow,
/// six packets, loss branching on the first eight decisions.
ExploreConfig documented_config() { return ExploreConfig{}; }

/// A smaller tree for tests that run the explorer several times.
ExploreConfig tiny_config() {
  ExploreConfig cfg;
  cfg.packets = 4;
  cfg.loss_choices = 3;
  return cfg;
}

bool stats_equal(const ExploreStats& a, const ExploreStats& b) {
  return a.states == b.states && a.branches == b.branches &&
         a.terminals == b.terminals && a.pruned == b.pruned &&
         a.truncated == b.truncated && a.violations == b.violations;
}

TEST(Explorer, DocumentedConfigEnumeratesExactly) {
  // The golden count for the documented config. If a protocol or
  // harness change moves it, re-derive and update EXPERIMENTS.md too —
  // the point is that the enumeration is exact and reproducible.
  Explorer explorer(documented_config());
  const ExploreResult result = explorer.run();
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.stats.states, 246u);
  EXPECT_EQ(result.stats.branches, 247u);
  EXPECT_EQ(result.stats.terminals, 247u);
  EXPECT_EQ(result.stats.violations, 0u);
}

TEST(Explorer, PerfbenchConfigEnumeratesExactly) {
  // perfbench's explore workload: 20 packets, window 16, 14 loss choices
  // with ACK loss, ties of width 2 with 4 choices. Timer entries take
  // part in the tie groups, so a change to event order moves these.
  for (const int threads : {1, 2}) {
    ExploreConfig cfg;
    cfg.packets = 20;
    cfg.window = 16.0;
    cfg.loss_choices = 14;
    cfg.ack_loss = true;
    cfg.tie_width = 2;
    cfg.tie_choices = 4;
    cfg.threads = threads;
    const ExploreResult result = Explorer(cfg).run();
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.stats.states, 37142u) << "threads=" << threads;
    EXPECT_EQ(result.stats.branches, 37143u) << "threads=" << threads;
    EXPECT_EQ(result.stats.pruned, 21647u) << "threads=" << threads;
    EXPECT_EQ(result.stats.violations, 0u);
  }
}

TEST(Explorer, StateCountsAreDeterministicAcrossRunsAndThreads) {
  ExploreConfig cfg = tiny_config();
  const ExploreResult first = Explorer(cfg).run();
  const ExploreResult again = Explorer(cfg).run();
  ASSERT_TRUE(first.complete);
  EXPECT_TRUE(stats_equal(first.stats, again.stats));

  for (const int threads : {2, 4}) {
    ExploreConfig parallel_cfg = cfg;
    parallel_cfg.threads = threads;
    const ExploreResult parallel = Explorer(parallel_cfg).run();
    EXPECT_TRUE(parallel.complete);
    EXPECT_TRUE(stats_equal(first.stats, parallel.stats))
        << "threads=" << threads << ": states " << parallel.stats.states
        << " vs " << first.stats.states;
    EXPECT_EQ(first.jobs, parallel.jobs);
  }
}

TEST(Explorer, VisitedStatePruningCutsWorkWithoutChangingOutcomes) {
  // Two identical overlapping blackouts: the fault-order rotation is a
  // pure commuting choice (either order drops the same packet), so both
  // rotations reach the same digest at the next choice point and the
  // second subtree must be pruned.
  ExploreConfig cfg;
  cfg.packets = 4;
  cfg.loss_choices = 2;
  cfg.fault_schedule = "blackout@0+1;blackout@0+1";
  cfg.split_depth = 0;  // whole tree in one job: the prune is visible

  ExploreConfig unpruned_cfg = cfg;
  unpruned_cfg.prune_visited = false;

  const ExploreResult pruned = Explorer(cfg).run();
  const ExploreResult unpruned = Explorer(unpruned_cfg).run();
  ASSERT_TRUE(pruned.complete);
  ASSERT_TRUE(unpruned.complete);
  EXPECT_EQ(unpruned.stats.pruned, 0u);
  EXPECT_GT(pruned.stats.pruned, 0u);
  EXPECT_LT(pruned.stats.states, unpruned.stats.states);
  EXPECT_LT(pruned.stats.terminals, unpruned.stats.terminals);
  // Reduction only suppresses redundant work; neither run misreports.
  EXPECT_EQ(pruned.stats.violations, 0u);
  EXPECT_EQ(unpruned.stats.violations, 0u);
}

/// Deliberate test-only "bug": flags any branch that retransmitted.
void no_retransmission_property(const BranchContext& ctx) {
  const auto& stats = ctx.conn.sender().stats();
  if (stats.retransmissions >= 1) {
    throw PropertyViolation("test.no_rtx",
                            "branch retransmitted " +
                                std::to_string(stats.retransmissions) +
                                " segment(s)");
  }
}

TEST(Explorer, CounterexampleReplayReproducesViolationExactly) {
  ExploreConfig cfg = tiny_config();
  Explorer explorer(cfg);
  explorer.add_property("test.no_rtx", no_retransmission_property);
  const ExploreResult result = explorer.run();
  ASSERT_FALSE(result.violations.empty());
  EXPECT_GE(result.stats.violations, 1u);
  const Violation& violation = result.violations.front();
  EXPECT_EQ(violation.check, "test.no_rtx");
  ASSERT_FALSE(violation.path.empty());

  // A fresh explorer (same config + property) must replay the recorded
  // path to the same violated check and a byte-identical state digest.
  Explorer replayer(cfg);
  replayer.add_property("test.no_rtx", no_retransmission_property);
  const ReplayOutcome outcome = replayer.replay(violation.path);
  EXPECT_FALSE(outcome.diverged) << outcome.message;
  EXPECT_TRUE(outcome.violated);
  EXPECT_EQ(outcome.check, violation.check);
  EXPECT_EQ(outcome.digest.hex(), violation.digest.hex());
}

/// The documented config with tie branching (width 2, 4 choices): 619
/// states when clean.
ExploreConfig ties_config() {
  ExploreConfig cfg;
  cfg.tie_width = 2;
  cfg.tie_choices = 4;
  return cfg;
}

TEST(Explorer, CounterexamplesAndStatsAtAbortArePinned) {
  // The first test.no_rtx violation and the counters at abort, as the
  // build that ended branches by unwinding found them at -j 1. The tiny
  // config aborts above the frontier; the tie config aborts in job 0 of
  // 16, and later jobs stop and stay out of the merge, so -j 2 reports
  // the same counters and counterexample as -j 1.
  struct Pinned {
    const char* name;
    ExploreConfig config;
    const char* path;
    const char* digest;
    ExploreStats stats;
    std::size_t jobs;
  };
  const std::vector<Pinned> cases{
      {"tiny", tiny_config(), "F0 F0 F1", "dabdae018407a1338c7c40287d636a1b",
       ExploreStats{.states = 3, .branches = 2, .terminals = 2, .violations = 1}, 0},
      {"ties", ties_config(), "F0 F0 F0 T0/2 F0 F1 F1 F0 F0",
       "0c005e70797f9c0d7d25722c1d8593ab",
       ExploreStats{.states = 26, .branches = 9, .terminals = 6, .pruned = 3, .violations = 1},
       16},
  };
  for (const Pinned& pinned : cases) {
    for (const int threads : {1, 2}) {
      ExploreConfig cfg = pinned.config;
      cfg.threads = threads;
      Explorer explorer(cfg);
      explorer.add_property("test.no_rtx", no_retransmission_property);
      const ExploreResult result = explorer.run();
      const std::string where = std::string(pinned.name) + " -j " + std::to_string(threads);
      ASSERT_EQ(result.violations.size(), 1u) << where;
      const Violation& violation = result.violations.front();
      EXPECT_EQ(encode_choices(violation.path), pinned.path) << where;
      EXPECT_EQ(violation.check, "test.no_rtx") << where;
      EXPECT_EQ(violation.digest.hex(), pinned.digest) << where;
      EXPECT_TRUE(stats_equal(result.stats, pinned.stats))
          << where << ": states " << result.stats.states << ", branches "
          << result.stats.branches << ", terminals " << result.stats.terminals
          << ", pruned " << result.stats.pruned << ", truncated " << result.stats.truncated
          << ", violations " << result.stats.violations;
      EXPECT_EQ(result.jobs, pinned.jobs) << where;
      EXPECT_FALSE(result.complete) << where;

      const ReplayOutcome outcome = explorer.replay(violation.path);
      EXPECT_FALSE(outcome.diverged) << where << ": " << outcome.message;
      EXPECT_TRUE(outcome.violated) << where;
      EXPECT_EQ(outcome.check, "test.no_rtx") << where;
      EXPECT_EQ(outcome.digest.hex(), pinned.digest) << where;
    }
  }
}

TEST(Explorer, ReplayDetectsDivergence) {
  ExploreConfig cfg = tiny_config();
  Explorer explorer(cfg);
  explorer.add_property("test.no_rtx", no_retransmission_property);
  const ExploreResult result = explorer.run();
  ASSERT_FALSE(result.violations.empty());
  const Violation& violation = result.violations.front();
  ASSERT_GE(violation.path.size(), 2u);

  // A truncated trace runs out of recorded choices mid-branch.
  std::vector<Choice> truncated(violation.path.begin(),
                                violation.path.end() - 1);
  Explorer replayer(cfg);
  const ReplayOutcome short_replay = replayer.replay(truncated);
  EXPECT_TRUE(short_replay.diverged);

  // The same trace against a different scenario either diverges or ends
  // in a different state — it must not silently "reproduce".
  ExploreConfig other = cfg;
  other.packets = cfg.packets + 1;
  Explorer mismatched(other);
  const ReplayOutcome wrong_config = mismatched.replay(violation.path);
  EXPECT_TRUE(wrong_config.diverged ||
              wrong_config.digest.hex() != violation.digest.hex());
}

TEST(Explorer, CleanBranchReplaysClean) {
  // The all-defaults branch (every packet delivered) replays without a
  // violation and with every recorded choice consumed.
  ExploreConfig cfg = tiny_config();
  Explorer explorer(cfg);
  std::vector<Choice> deliver_all(
      cfg.loss_choices, Choice{ChoiceKind::kForwardLoss, 0, 2});
  const ReplayOutcome outcome = explorer.replay(deliver_all);
  EXPECT_FALSE(outcome.diverged) << outcome.message;
  EXPECT_FALSE(outcome.violated);
  EXPECT_TRUE(outcome.check.empty());
}

TEST(Explorer, DepthBudgetTruncatesAndReportsIncomplete) {
  ExploreConfig cfg = tiny_config();
  cfg.depth = 1;
  const ExploreResult result = Explorer(cfg).run();
  EXPECT_FALSE(result.complete);
  EXPECT_GT(result.stats.truncated, 0u);
}

TEST(Explorer, MaxStatesBudgetReportsIncomplete) {
  ExploreConfig cfg = tiny_config();
  cfg.max_states = 1;
  const ExploreResult result = Explorer(cfg).run();
  EXPECT_FALSE(result.complete);
}

TEST(Explorer, StopFlagInterrupts) {
  std::atomic<bool> stop{true};
  Explorer explorer(tiny_config());
  const ExploreResult result = explorer.run(&stop);
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.complete);
}

TEST(Explorer, ConfigValidationRejectsBadFields) {
  for (const auto& mutate : std::vector<void (*)(ExploreConfig&)>{
           [](ExploreConfig& c) { c.packets = 0; },
           [](ExploreConfig& c) { c.packets = 65; },
           [](ExploreConfig& c) { c.window = 0.5; },
           [](ExploreConfig& c) { c.ack_every = 0; },
           [](ExploreConfig& c) { c.one_way_delay = 0.0; },
           [](ExploreConfig& c) { c.min_rto = 0.0; },
           [](ExploreConfig& c) { c.time_cap = 0.0; },
           [](ExploreConfig& c) { c.tie_width = 1; },
           [](ExploreConfig& c) { c.tie_width = 99; },
           [](ExploreConfig& c) { c.depth = 0; },
           [](ExploreConfig& c) { c.threads = 0; },
           [](ExploreConfig& c) { c.fault_schedule = "bogus@@"; },
       }) {
    ExploreConfig cfg;
    mutate(cfg);
    EXPECT_THROW(Explorer{cfg}, std::invalid_argument);
  }
}

TEST(Explorer, MaxStatesCutIsTheSameAtOneAndTwoThreads) {
  // perfbench's tree cut at 10,000 states: -j 2 must stop where -j 1
  // does, whatever order its jobs run in (the CLI golden
  // explore_max_states pins the -j 1 counts).
  ExploreConfig cfg;
  cfg.packets = 20;
  cfg.window = 16.0;
  cfg.loss_choices = 14;
  cfg.ack_loss = true;
  cfg.tie_width = 2;
  cfg.tie_choices = 4;
  cfg.max_states = 10000;
  const ExploreResult serial = Explorer(cfg).run();
  EXPECT_FALSE(serial.complete);
  EXPECT_TRUE(stats_equal(serial.stats, ExploreStats{.states = 10000,
                                                     .branches = 9982,
                                                     .terminals = 4207,
                                                     .pruned = 5775}))
      << "states " << serial.stats.states << ", branches " << serial.stats.branches;
  for (int run = 0; run < 24; ++run) {
    ExploreConfig parallel_cfg = cfg;
    parallel_cfg.threads = run % 4 == 3 ? 4 : 2;
    const ExploreResult parallel = Explorer(parallel_cfg).run();
    EXPECT_FALSE(parallel.complete);
    EXPECT_TRUE(stats_equal(parallel.stats, serial.stats))
        << "run " << run << " -j " << parallel_cfg.threads << ": states "
        << parallel.stats.states << ", branches " << parallel.stats.branches
        << ", terminals " << parallel.stats.terminals << ", pruned " << parallel.stats.pruned;
  }
}

/// What the recording property saw at the end of one branch.
struct RecordedBranch {
  std::vector<Choice> path;
  std::string digest;
};

TEST(Explorer, EveryTerminalBranchEndsAsItsReplayDoes) {
  // Jobs resume branches from snapshots; replay() runs each from t = 0.
  // Every terminal branch must end in the verdict and state its replay
  // ends in.
  ExploreConfig faults;
  faults.packets = 4;
  faults.loss_choices = 4;
  faults.ack_loss = true;
  faults.fault_schedule = "blackout@0+1;blackout@0+1";
  ExploreConfig all_kinds;
  all_kinds.packets = 6;
  all_kinds.loss_choices = 6;
  all_kinds.ack_loss = true;
  all_kinds.tie_width = 2;
  all_kinds.tie_choices = 2;
  all_kinds.fault_schedule = "blackout@0+1;blackout@0+1";
  const std::vector<std::pair<const char*, ExploreConfig>> configs{
      {"documented", documented_config()},
      {"ties", ties_config()},
      {"faults", faults},
      {"all-kinds", all_kinds}};
  for (const auto& [name, cfg] : configs) {
    std::vector<RecordedBranch> branches;
    Explorer explorer(cfg);
    explorer.add_property("test.record", [&branches](const BranchContext& ctx) {
      branches.push_back(RecordedBranch{std::vector<Choice>(ctx.path.begin(), ctx.path.end()),
                                        digest_connection(ctx.conn).hex()});
    });
    const ExploreResult result = explorer.run();
    ASSERT_TRUE(result.complete) << name;
    EXPECT_EQ(branches.size(), result.stats.terminals) << name;
    Explorer replayer(cfg);
    std::size_t mismatches = 0;
    for (const RecordedBranch& branch : branches) {
      const ReplayOutcome outcome = replayer.replay(branch.path);
      if (outcome.diverged || outcome.violated || outcome.digest.hex() != branch.digest) {
        ++mismatches;
        ADD_FAILURE() << name << ": " << encode_choices(branch.path) << ": "
                      << (outcome.diverged ? "diverged: " + outcome.message
                                           : outcome.digest.hex() + " vs " + branch.digest);
      }
    }
    EXPECT_EQ(mismatches, 0u) << name;
  }
}

TEST(Digest, HexOfFixedStatesIsPinned) {
  // The digest's bits, written by the build whose digest allocated a
  // vector per call and mixed out of line: a change to the mixing or to
  // what is hashed, in what order, moves these.
  sim::ConnectionConfig oracle;
  oracle.sender.initial_cwnd = 1.0;
  oracle.sender.advertised_window = 8.0;
  oracle.sender.initial_rto = 1.0;
  oracle.sender.min_rto = 1.0;
  oracle.sender.timer_tick = 0.0;
  oracle.sender.total_packets = 20;
  oracle.forward_link.propagation_delay = 0.05;
  oracle.reverse_link.propagation_delay = 0.05;
  int offered = 0;
  oracle.forward_loss = sim::OracleLossSpec{[&offered](sim::Time) { return ++offered % 5 == 2; }};
  sim::ConnectionConfig lossy;
  lossy.sender.advertised_window = 16.0;
  lossy.forward_loss = sim::BernoulliLossSpec{0.05};
  lossy.seed = 7;

  std::vector<std::string> hex;
  for (const sim::ConnectionConfig* cfg : {&oracle, &lossy}) {
    sim::Connection conn(*cfg);
    hex.push_back(digest_connection(conn).hex());
    for (const double until : {0.25, 1.3, 7.0, 30.0}) {
      (void)conn.run_for(until - conn.event_queue().now());
      hex.push_back(digest_connection(conn).hex());
    }
  }
  const std::vector<std::string> pinned{
      "894ee1b0613bdae4a253ad48129062af", "e25875e45748708b66198c1fc73fb69f",
      "492b6609f61e89bee1754dc91dfe7b1b", "476e5ca332718a1f5e9e496271d0fca0",
      "f3a60fa95a39bcc96108fcd37d3b7f79", "e244013ebc41840dbe6d29ddf83939be",
      "96be4990c629da92b8bdbe1d01954a34", "3b86707dcd6a6d22c63a0e1bf744bf8f",
      "9c7401bbd065a4d8114b1df35229b264", "8c2d7554f85457838894673760dc74e5",
  };
  EXPECT_EQ(hex, pinned);
}

TEST(TraceFile, SerializeParseRoundTrip) {
  CounterexampleTrace trace;
  trace.config.packets = 5;
  trace.config.window = 6.0;
  trace.config.ack_every = 1;
  trace.config.ack_loss = true;
  trace.config.fault_schedule = "blackout@0+1";
  trace.config.tie_width = 3;
  trace.config.tie_choices = 2;
  trace.choices = {{ChoiceKind::kForwardLoss, 1, 2},
                   {ChoiceKind::kTieBreak, 2, 3}};
  trace.check = "test.no_rtx";
  trace.message = "branch retransmitted 1 segment(s)";
  DigestBuilder builder;
  builder.add_u64(7);
  trace.digest = builder.finish();

  const std::string text = serialize_trace(trace);
  const CounterexampleTrace parsed = parse_trace(text);
  EXPECT_EQ(parsed.config.packets, trace.config.packets);
  EXPECT_EQ(parsed.config.window, trace.config.window);
  EXPECT_EQ(parsed.config.ack_every, trace.config.ack_every);
  EXPECT_EQ(parsed.config.ack_loss, trace.config.ack_loss);
  EXPECT_EQ(parsed.config.fault_schedule, trace.config.fault_schedule);
  EXPECT_EQ(parsed.config.tie_width, trace.config.tie_width);
  EXPECT_EQ(parsed.config.tie_choices, trace.config.tie_choices);
  EXPECT_EQ(parsed.choices, trace.choices);
  EXPECT_EQ(parsed.check, trace.check);
  EXPECT_EQ(parsed.message, trace.message);
  EXPECT_EQ(parsed.digest, trace.digest);
}

TEST(TraceFile, ParseRejectsMalformedInput) {
  const CounterexampleTrace trace;  // digest present, empty path
  const std::string good = serialize_trace(trace);
  EXPECT_THROW((void)parse_trace("not-a-trace\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace(good + "mystery=1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace("pftk-mc/1\n"), std::invalid_argument)
      << "a trace without a digest must not parse";
}

TEST(TraceFile, NumbersAreStrictAndErrorsNameTheLine) {
  // Each edit used to replay as the clean packets=6 file: stoul wrapped
  // 4294967302 to 6 and stopped at a suffix, stoi truncated 2.9, stod
  // ignored a suffix and stoull negated a sign.
  CounterexampleTrace trace;
  trace.config.packets = 6;
  trace.config.loss_choices = 0;
  const std::string good = serialize_trace(trace);
  ASSERT_NO_THROW((void)parse_trace(good));
  const std::vector<std::pair<std::string, std::string>> edits{
      {"packets=6", "packets=4294967302"},
      {"packets=6", "packets=6junk"},
      {"packets=6", "packets=-6"},
      {"ack_every=2", "ack_every=2.9"},
      {"ack_every=2", "ack_every=0"},
      {"window=8", "window=8junk"},
      {"ack_loss=0", "ack_loss=2"},
      {"seed=1", "seed=-18446744073709551615"},
      {"seed=1", "seed=18446744073709551616"},
      {"depth=64", "depth=+64"},
  };
  for (const auto& [from, to] : edits) {
    std::string text = good;
    const std::size_t at = text.find("\n" + from + "\n");
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at + 1, from.size(), to);
    const std::size_t line = 1 + static_cast<std::size_t>(
                                     std::count(text.begin(), text.begin() + at + 1, '\n'));
    try {
      (void)parse_trace(text);
      ADD_FAILURE() << to << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) + ": "),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(to), std::string::npos) << e.what();
    }
  }
}

TEST(TraceFile, SaveLoadRoundTripsOnDisk) {
  CounterexampleTrace trace;
  trace.choices = {{ChoiceKind::kForwardLoss, 1, 2}};
  trace.check = "x";
  trace.message = "m";
  const std::string path = ::testing::TempDir() + "pftk_mc_trace_roundtrip";
  std::remove(path.c_str());
  save_trace_file(path, trace);
  const CounterexampleTrace loaded = load_trace_file(path);
  EXPECT_EQ(loaded.choices, trace.choices);
  EXPECT_EQ(loaded.check, trace.check);
  EXPECT_EQ(loaded.digest, trace.digest);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pftk::mc
