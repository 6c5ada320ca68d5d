// Failpoint registry semantics: spec grammar round-trip, deterministic
// after=N one-shot firing, disarmed zero-cost pass-through, and strict
// rejection of malformed specs.
#include <gtest/gtest.h>

#include <stdexcept>

#include "robust/failpoint.hpp"

namespace pftk::robust {
namespace {

/// Every test leaves the process-wide registry clean for the next one.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::instance().disarm_all(); }
  void TearDown() override { FailpointRegistry::instance().disarm_all(); }
};

TEST_F(FailpointTest, SpecParsesAndRoundTrips) {
  const auto spec =
      FailpointSpec::parse_one("journal.append:after=3:action=short_write:arg=8");
  EXPECT_EQ(spec.name, "journal.append");
  EXPECT_EQ(spec.after, 3u);
  EXPECT_EQ(spec.action, FailpointAction::kShortWrite);
  EXPECT_EQ(spec.arg, 8u);
  // describe() renders a spec parse_one() accepts back unchanged.
  const auto reparsed = FailpointSpec::parse_one(spec.describe());
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(reparsed.after, spec.after);
  EXPECT_EQ(reparsed.action, spec.action);
  EXPECT_EQ(reparsed.arg, spec.arg);
}

TEST_F(FailpointTest, ActionNamesRoundTrip) {
  for (const FailpointAction a :
       {FailpointAction::kError, FailpointAction::kShortWrite,
        FailpointAction::kEnospc, FailpointAction::kDelay,
        FailpointAction::kCrash}) {
    EXPECT_EQ(failpoint_action_from_name(failpoint_action_name(a)), a);
  }
}

TEST_F(FailpointTest, MalformedSpecsThrow) {
  for (const char* bad :
       {"", "x:action=bogus", "x:action=off", "x:after=:action=error",
        "x:after=1:action=error:unknown=3", ":after=0:action=error",
        "x:after=nan:action=error", "x:noequals"}) {
    EXPECT_THROW((void)FailpointSpec::parse_one(bad), std::invalid_argument)
        << "spec: " << bad;
  }
}

TEST_F(FailpointTest, CountsPastUint64AreRejectedNotWrapped) {
  // after=2^64+1 used to wrap to 1 and fire on the second evaluation.
  for (const char* bad : {"journal.append:after=18446744073709551617:action=error",
                          "journal.append:after=18446744073709551616:action=error",
                          "d:after=0:action=delay:arg=18446744073709551617",
                          "d:after=-1:action=error", "d:after=+1:action=error"}) {
    EXPECT_THROW((void)FailpointSpec::parse_one(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(FailpointSpec::parse_one("x:after=18446744073709551615:action=error").after,
            18446744073709551615u);
}

TEST_F(FailpointTest, DefaultsAndEmptyClausesAreLenient) {
  // Omitted keys default (action=error, after=0), and empty clauses in a
  // ';'-separated list are skipped.
  FailpointRegistry::instance().arm_specs(";just_a_name;");
  EXPECT_EQ(FailpointRegistry::instance().armed_count(), 1u);
  EXPECT_EQ(failpoint("just_a_name").action, FailpointAction::kError);
}

TEST_F(FailpointTest, DisarmedEvaluationsNeverFire) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(failpoint("journal.append").fired());
  }
  EXPECT_EQ(FailpointRegistry::instance().armed_count(), 0u);
  EXPECT_EQ(FailpointRegistry::instance().fired_count("journal.append"), 0u);
}

TEST_F(FailpointTest, FiresExactlyOnceAfterNPasses) {
  FailpointRegistry::instance().arm_specs(
      "export.prom.write:after=2:action=enospc");
  // after=2: two evaluations pass untouched...
  EXPECT_FALSE(failpoint("export.prom.write").fired());
  EXPECT_FALSE(failpoint("export.prom.write").fired());
  // ...the third fires...
  const FailpointHit hit = failpoint("export.prom.write");
  EXPECT_EQ(hit.action, FailpointAction::kEnospc);
  // ...and the spec is consumed: one-shot.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(failpoint("export.prom.write").fired());
  }
  EXPECT_EQ(FailpointRegistry::instance().fired_count("export.prom.write"), 1u);
  EXPECT_EQ(FailpointRegistry::instance().armed_count(), 0u);
}

TEST_F(FailpointTest, NameSelectivity) {
  FailpointRegistry::instance().arm_specs("journal.flush:after=0:action=error");
  // A different site never trips someone else's spec.
  EXPECT_FALSE(failpoint("journal.append").fired());
  EXPECT_TRUE(failpoint("journal.flush").fired());
}

TEST_F(FailpointTest, MultipleSpecsSameNameFireInArmingOrder) {
  FailpointRegistry::instance().arm_specs(
      "j:after=0:action=error;j:after=1:action=enospc");
  // Evaluation 1 fires the first spec; the second spec's after=1 counts
  // that same evaluation, so it fires on evaluation 2.
  EXPECT_EQ(failpoint("j").action, FailpointAction::kError);
  EXPECT_EQ(failpoint("j").action, FailpointAction::kEnospc);
  EXPECT_FALSE(failpoint("j").fired());
  EXPECT_EQ(FailpointRegistry::instance().fired_count("j"), 2u);
  // Once every spec has fired the fast path re-engages, so the third
  // evaluation never reaches the registry's counters — disarmed cost
  // returns to a single atomic load.
  EXPECT_EQ(FailpointRegistry::instance().evaluation_count("j"), 2u);
}

TEST_F(FailpointTest, DelayActionIsConsumedInsideEvaluate) {
  FailpointRegistry::instance().arm_specs("d:after=0:action=delay:arg=1");
  // The sleep happens inside evaluate(); the caller sees a pass-through,
  // keeping delay byte-invisible to the persistence layer.
  EXPECT_FALSE(failpoint("d").fired());
  EXPECT_EQ(FailpointRegistry::instance().fired_count("d"), 1u);
}

TEST_F(FailpointTest, KnownSitesEnumeratesCanonicalTableSorted) {
  const auto sites = FailpointRegistry::instance().known_sites();
  ASSERT_GE(sites.size(), 8u);
  for (std::size_t i = 1; i < sites.size(); ++i) {
    EXPECT_LT(sites[i - 1].first, sites[i].first) << "not sorted at " << i;
  }
  for (const char* name :
       {"checkpoint.rename", "export.jsonl.write", "export.prom.write",
        "journal.append", "journal.flush", "mc.trace.write",
        "trace.read.line", "trace.write"}) {
    bool found = false;
    for (const auto& [site, description] : sites) {
      if (site == name) {
        found = true;
        EXPECT_FALSE(description.empty()) << name;
      }
    }
    EXPECT_TRUE(found) << "missing canonical site " << name;
  }
}

TEST_F(FailpointTest, RegisterSiteIsIdempotentFirstDescriptionWins) {
  FailpointRegistry::instance().register_site("test.site.alpha", "original");
  const std::size_t count = FailpointRegistry::instance().known_sites().size();
  FailpointRegistry::instance().register_site("test.site.alpha", "usurper");
  const auto sites = FailpointRegistry::instance().known_sites();
  EXPECT_EQ(sites.size(), count);
  for (const auto& [site, description] : sites) {
    if (site == "test.site.alpha") {
      EXPECT_EQ(description, "original");
    }
  }
  EXPECT_THROW(FailpointRegistry::instance().register_site("", "x"),
               std::invalid_argument);
}

TEST_F(FailpointTest, CheckSpecsRejectsUnknownSitesAndArmsNothing) {
  auto& registry = FailpointRegistry::instance();
  EXPECT_NO_THROW(registry.check_specs(
      "journal.append:after=4:action=crash:arg=8;flight.write:after=0:action=error"));
  try {
    registry.check_specs("journal.flush:after=1:action=error;jornal.append:after=0:action=error");
    ADD_FAILURE() << "a misspelled site passed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'jornal.append'"), std::string::npos) << e.what();
  }
  EXPECT_THROW(registry.check_specs("bogus"), std::invalid_argument);
  EXPECT_THROW(registry.check_specs("journal.append:action=nope"), std::invalid_argument);
  EXPECT_EQ(registry.armed_count(), 0u);
  // Arming itself still takes any name: tests evaluate sites of their own.
  EXPECT_NO_THROW(registry.arm_specs("test.only.site:after=0:action=error"));
  EXPECT_EQ(registry.armed_count(), 1u);
}

TEST_F(FailpointTest, DisarmAllResetsState) {
  FailpointRegistry::instance().arm_specs("x:after=5:action=error");
  EXPECT_EQ(FailpointRegistry::instance().armed_count(), 1u);
  FailpointRegistry::instance().disarm_all();
  EXPECT_EQ(FailpointRegistry::instance().armed_count(), 0u);
  EXPECT_EQ(FailpointRegistry::instance().evaluation_count("x"), 0u);
  EXPECT_FALSE(failpoint("x").fired());
}

}  // namespace
}  // namespace pftk::robust
