// Choice-point plumbing for the bounded model checker: token/path
// round-trips, ScriptedChoices prefix verification + fresh-node hook
// verdicts (a prune stops the source and its queue), ReplayChoices
// strictness, and digest hex round-trips.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mc/choice.hpp"
#include "mc/digest.hpp"
#include "sim/event_queue.hpp"

namespace pftk::mc {
namespace {

TEST(ChoiceKindTokens, RoundTrip) {
  for (const ChoiceKind kind :
       {ChoiceKind::kForwardLoss, ChoiceKind::kAckLoss, ChoiceKind::kTieBreak,
        ChoiceKind::kFaultOrder}) {
    EXPECT_EQ(choice_kind_from_token(choice_kind_token(kind)), kind);
  }
  EXPECT_THROW((void)choice_kind_from_token('X'), std::invalid_argument);
}

TEST(ChoiceEncoding, PathRoundTrips) {
  const std::vector<Choice> path{
      {ChoiceKind::kForwardLoss, 1, 2},
      {ChoiceKind::kAckLoss, 0, 2},
      {ChoiceKind::kTieBreak, 2, 3},
      {ChoiceKind::kFaultOrder, 1, 2},
  };
  const std::string text = encode_choices(path);
  EXPECT_EQ(text, "F1 A0 T2/3 O1/2");
  EXPECT_EQ(decode_choices(text), path);
  EXPECT_TRUE(decode_choices("").empty());
  EXPECT_EQ(encode_choices({}), "");
}

TEST(ChoiceEncoding, RejectsMalformedTokens) {
  for (const char* bad :
       {"Z1", "F", "F9x", "T2", "T2/", "T2/1", "T3/3", "O1/2junk", "F1/2",
        "A0/3", "T1/99999999999",
        // Plain decimals only: stoul used to accept a sign.
        "F+1", "T+1/2", "T1/+2", "O+0/3", "A-0", "T1/-2"}) {
    EXPECT_THROW((void)decode_choices(bad), std::invalid_argument)
        << "token: " << bad;
  }
}

TEST(ScriptedChoices, ExtendsWithDefaultsAndRecordsArity) {
  ScriptedChoices source({});
  EXPECT_EQ(source.choose(ChoiceKind::kForwardLoss, 2), 0u);
  EXPECT_EQ(source.choose(ChoiceKind::kTieBreak, 3), 0u);
  ASSERT_EQ(source.path().size(), 2u);
  EXPECT_EQ(source.path()[0], (Choice{ChoiceKind::kForwardLoss, 0, 2}));
  EXPECT_EQ(source.path()[1], (Choice{ChoiceKind::kTieBreak, 0, 3}));
  EXPECT_FALSE(source.truncated());
}

TEST(ScriptedChoices, ReplaysPrefixThenExtends) {
  ScriptedChoices source({{ChoiceKind::kForwardLoss, 1, 2}});
  EXPECT_EQ(source.choose(ChoiceKind::kForwardLoss, 2), 1u);
  EXPECT_EQ(source.choose(ChoiceKind::kAckLoss, 2), 0u);
  EXPECT_EQ(source.prefix_length(), 1u);
  ASSERT_EQ(source.path().size(), 2u);
  EXPECT_EQ(source.path()[0].chosen, 1u);
}

TEST(ScriptedChoices, PrefixMismatchDiverges) {
  // The simulation asks a different question than the prefix recorded:
  // stateless re-execution has gone non-deterministic. Kind mismatch...
  ScriptedChoices kind_mismatch({{ChoiceKind::kForwardLoss, 0, 2}});
  EXPECT_THROW((void)kind_mismatch.choose(ChoiceKind::kTieBreak, 2),
               ChoiceDivergence);
  // ...and arity mismatch both must be caught.
  ScriptedChoices arity_mismatch({{ChoiceKind::kTieBreak, 0, 3}});
  EXPECT_THROW((void)arity_mismatch.choose(ChoiceKind::kTieBreak, 4),
               ChoiceDivergence);
}

TEST(ScriptedChoices, HookSeesFreshNodesOnly) {
  std::vector<std::size_t> depths;
  ScriptedChoices source({{ChoiceKind::kForwardLoss, 1, 2}});
  source.set_hook([&](ChoiceKind, std::size_t, std::size_t depth) {
    depths.push_back(depth);
    return NodeVerdict::kExplore;
  });
  (void)source.choose(ChoiceKind::kForwardLoss, 2);  // prefix: no hook
  (void)source.choose(ChoiceKind::kAckLoss, 2);      // fresh: depth 1
  (void)source.choose(ChoiceKind::kAckLoss, 2);      // fresh: depth 2
  EXPECT_EQ(depths, (std::vector<std::size_t>{1, 2}));
}

TEST(ScriptedChoices, PruneVerdictStopsTheSource) {
  int hook_calls = 0;
  ScriptedChoices source({{ChoiceKind::kForwardLoss, 1, 2}});
  source.set_hook([&](ChoiceKind, std::size_t, std::size_t depth) {
    ++hook_calls;
    return depth >= 2 ? NodeVerdict::kPrune : NodeVerdict::kExplore;
  });
  EXPECT_EQ(source.choose(ChoiceKind::kForwardLoss, 2), 1u);  // prefix
  EXPECT_EQ(source.choose(ChoiceKind::kAckLoss, 2), 0u);      // explored
  EXPECT_FALSE(source.stopped());
  EXPECT_EQ(source.choose(ChoiceKind::kTieBreak, 3), 0u);     // pruned
  EXPECT_TRUE(source.stopped());
  EXPECT_EQ(hook_calls, 2);
  // From the prune on, every choice answers 0, records nothing and
  // leaves the hook alone, whatever kind or arity it has.
  for (const ChoiceKind kind : {ChoiceKind::kForwardLoss, ChoiceKind::kAckLoss,
                                ChoiceKind::kTieBreak, ChoiceKind::kFaultOrder}) {
    for (const std::size_t arity : {2u, 3u, 16u}) {
      EXPECT_EQ(source.choose(kind, arity), 0u);
    }
  }
  EXPECT_TRUE(source.stopped());
  EXPECT_FALSE(source.truncated());
  EXPECT_EQ(hook_calls, 2);
  EXPECT_EQ(source.path(), (std::vector<Choice>{{ChoiceKind::kForwardLoss, 1, 2},
                                                {ChoiceKind::kAckLoss, 0, 2}}));
}

TEST(ScriptedChoices, PruneVerdictStopsTheQueueAfterTheCurrentEvent) {
  // The choice is made inside an event; that event runs to its end on
  // 0 answers, then run_until returns with the clock at its time.
  sim::EventQueue queue;
  ScriptedChoices source({});
  source.set_hook([](ChoiceKind, std::size_t, std::size_t) { return NodeVerdict::kPrune; },
                  &queue);
  std::vector<std::size_t> answers;
  queue.schedule_at(1.0, [&] {
    answers.push_back(source.choose(ChoiceKind::kForwardLoss, 2));
    answers.push_back(source.choose(ChoiceKind::kTieBreak, 4));
  });
  bool later_ran = false;
  queue.schedule_at(1.0, [&] { later_ran = true; });
  queue.run_until(5.0);
  EXPECT_EQ(answers, (std::vector<std::size_t>{0, 0}));
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(queue.now(), 1.0);
  EXPECT_EQ(queue.executed(), 1u);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_TRUE(source.path().empty());
}

TEST(ScriptedChoices, TruncateStopsRecordingAndConsultation) {
  int hook_calls = 0;
  ScriptedChoices source({});
  source.set_hook([&](ChoiceKind, std::size_t, std::size_t depth) {
    ++hook_calls;
    return depth >= 1 ? NodeVerdict::kTruncate : NodeVerdict::kExplore;
  });
  EXPECT_EQ(source.choose(ChoiceKind::kForwardLoss, 2), 0u);  // explored
  EXPECT_EQ(source.choose(ChoiceKind::kForwardLoss, 2), 0u);  // truncates
  EXPECT_EQ(source.choose(ChoiceKind::kTieBreak, 5), 0u);     // no hook now
  EXPECT_TRUE(source.truncated());
  EXPECT_EQ(hook_calls, 2);
  // Only the explored node was recorded; the truncated tail is not part
  // of the path (its subtree was never enumerated).
  EXPECT_EQ(source.path().size(), 1u);
}

TEST(ReplayChoices, FollowsTraceExactly) {
  ReplayChoices source({{ChoiceKind::kForwardLoss, 1, 2},
                        {ChoiceKind::kTieBreak, 2, 3}});
  EXPECT_FALSE(source.done());
  EXPECT_EQ(source.choose(ChoiceKind::kForwardLoss, 2), 1u);
  EXPECT_EQ(source.choose(ChoiceKind::kTieBreak, 3), 2u);
  EXPECT_TRUE(source.done());
  EXPECT_EQ(source.consumed(), 2u);
}

TEST(ReplayChoices, DivergesOnMismatchOrExhaustion) {
  ReplayChoices kind_mismatch({{ChoiceKind::kForwardLoss, 0, 2}});
  EXPECT_THROW((void)kind_mismatch.choose(ChoiceKind::kAckLoss, 2),
               ChoiceDivergence);
  ReplayChoices arity_mismatch({{ChoiceKind::kTieBreak, 0, 3}});
  EXPECT_THROW((void)arity_mismatch.choose(ChoiceKind::kTieBreak, 2),
               ChoiceDivergence);
  ReplayChoices exhausted({});
  EXPECT_THROW((void)exhausted.choose(ChoiceKind::kForwardLoss, 2),
               ChoiceDivergence);
  // A trace recorded with a now-impossible index (e.g. hand-edited).
  ReplayChoices out_of_range({{ChoiceKind::kTieBreak, 3, 4}});
  EXPECT_THROW((void)out_of_range.choose(ChoiceKind::kTieBreak, 3),
               ChoiceDivergence);
}

TEST(McDigest, HexRoundTripsAndRejectsGarbage) {
  DigestBuilder builder;
  builder.add_u64(42);
  builder.add_double(0.125);
  builder.add_bool(true);
  const McDigest digest = builder.finish();
  const std::string hex = digest.hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(McDigest::from_hex(hex), digest);
  EXPECT_THROW((void)McDigest::from_hex("short"), std::invalid_argument);
  EXPECT_THROW((void)McDigest::from_hex(std::string(32, 'z')),
               std::invalid_argument);
}

TEST(McDigest, OrderAndValueSensitive) {
  DigestBuilder a;
  a.add_u64(1);
  a.add_u64(2);
  DigestBuilder b;
  b.add_u64(2);
  b.add_u64(1);
  EXPECT_NE(a.finish(), b.finish());
  DigestBuilder c;
  c.add_u64(1);
  c.add_u64(2);
  DigestBuilder d;
  d.add_u64(1);
  d.add_u64(2);
  EXPECT_EQ(c.finish(), d.finish());
}

}  // namespace
}  // namespace pftk::mc
