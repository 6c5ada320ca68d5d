// CampaignSpec: grid expansion order is the determinism contract, and
// the spec-file parser must reject garbage with a line diagnostic.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/campaign/campaign_spec.hpp"

namespace pftk::exp::campaign {
namespace {

PathProfile quick_profile(const std::string& sender, const std::string& receiver) {
  PathProfile profile;
  profile.sender = sender;
  profile.receiver = receiver;
  profile.one_way_delay = 0.05;
  profile.loss_p = 0.02;
  profile.advertised_window = 16.0;
  return profile;
}

CampaignSpec two_by_two_spec() {
  CampaignSpec spec;
  spec.profiles = {quick_profile("a", "b"), quick_profile("c", "d")};
  spec.seeds = {1, 2};
  spec.scenarios = {{"clean", {}, {}},
                    {"blackout", sim::FaultSchedule::parse("blackout@1+2"), {}}};
  spec.models = {model::ModelKind::kFull, model::ModelKind::kTdOnly};
  return spec;
}

TEST(CampaignSpec, ExpansionIsProfileMajorAndIndexed) {
  const auto items = two_by_two_spec().expand();
  ASSERT_EQ(items.size(), 16u);  // 2 profiles x 2 seeds x 2 scenarios x 2 models
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].index, i);
  }
  // Innermost axis is the model, then scenario, then seed, then profile.
  EXPECT_EQ(items[0].key(), "a->b/s1/clean/full");
  EXPECT_EQ(items[1].key(), "a->b/s1/clean/td");
  EXPECT_EQ(items[2].key(), "a->b/s1/blackout/full");
  EXPECT_EQ(items[4].key(), "a->b/s2/clean/full");
  EXPECT_EQ(items[8].key(), "c->d/s1/clean/full");
  EXPECT_EQ(items[15].key(), "c->d/s2/blackout/td");
}

TEST(CampaignSpec, ExpansionIsReproducible) {
  const CampaignSpec spec = two_by_two_spec();
  const auto a = spec.expand();
  const auto b = spec.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key());
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(CampaignSpec, EmptyScenarioAndModelAxesDefaultToOneCell) {
  CampaignSpec spec;
  spec.profiles = {quick_profile("a", "b")};
  spec.seeds = {7};
  const auto items = spec.expand();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].key(), "a->b/s7/clean/full");
  EXPECT_EQ(spec.item_count(), 1u);
}

TEST(CampaignSpec, ValidateRejectsEmptyGridAndBadKnobs) {
  CampaignSpec spec;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // no profiles
  spec.profiles = {quick_profile("a", "b")};
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // no seeds
  spec.seeds = {1};
  EXPECT_NO_THROW(spec.validate());
  spec.duration = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.duration = 10.0;
  spec.retry.max_attempts = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CampaignSpecParse, ParsesTheDocumentedFormat) {
  std::istringstream in(
      "# comment\n"
      "kind = short\n"
      "duration = 60\n"
      "profiles = manic->ganef, void -> ganef\n"
      "seeds = 10..12\n"
      "models = full, td\n"
      "scenario = clean | |\n"
      "scenario = dark | blackout@5+2 | loss@0+60:0.5\n"
      "deadline = 30\n"
      "max_events = 1000000\n"
      "retries = 4\n"
      "backoff_ms = 10\n"
      "backoff_cap_ms = 100\n");
  const CampaignSpec spec = CampaignSpec::parse(in);
  EXPECT_EQ(spec.kind, CampaignKind::kShortTrace);
  EXPECT_DOUBLE_EQ(spec.duration, 60.0);
  ASSERT_EQ(spec.profiles.size(), 2u);
  EXPECT_EQ(spec.profiles[1].sender, "void");
  ASSERT_EQ(spec.seeds.size(), 3u);
  EXPECT_EQ(spec.seeds[2], 12u);
  ASSERT_EQ(spec.models.size(), 2u);
  EXPECT_EQ(spec.models[1], model::ModelKind::kTdOnly);
  ASSERT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.scenarios[1].name, "dark");
  EXPECT_FALSE(spec.scenarios[1].forward.empty());
  EXPECT_FALSE(spec.scenarios[1].reverse.empty());
  EXPECT_DOUBLE_EQ(spec.deadline_s, 30.0);
  EXPECT_EQ(spec.watchdog.max_events, 1000000u);
  EXPECT_EQ(spec.retry.max_attempts, 4);
  EXPECT_EQ(spec.retry.backoff_base.count(), 10);
  EXPECT_EQ(spec.retry.backoff_cap.count(), 100);
  EXPECT_EQ(spec.item_count(), 2u * 3u * 2u * 2u);
}

TEST(CampaignSpecParse, RejectsGarbageWithLineDiagnostics) {
  const auto expect_rejected = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW((void)CampaignSpec::parse(in), std::invalid_argument) << text;
  };
  expect_rejected("profiles = manic->ganef\nseeds = 1\nnot a line\n");
  expect_rejected("profiles = manic->ganef\nseeds = 1\nkind = weekly\n");
  expect_rejected("profiles = nosuch->host\nseeds = 1\n");
  expect_rejected("profiles = manic->ganef\nseeds = banana\n");
  expect_rejected("profiles = manic->ganef\nseeds = 5..2\n");
  expect_rejected("profiles = manic->ganef\nseeds = 1\nmodels = cubist\n");
  expect_rejected("profiles = manic->ganef\nseeds = 1\nscenario = | blackout@0+1 |\n");
  expect_rejected("profiles = manic->ganef\nseeds = 1\nwombat = 3\n");
}

/// The message parse() throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)CampaignSpec::parse(in);
  } catch (const std::invalid_argument& ex) {
    return ex.what();
  }
  return "";
}

TEST(CampaignSpecParse, IntegersAreStrictDecimals) {
  // A sign is never negated or skipped, and the error names the line.
  for (const char* line : {"seeds = -1", "seeds = +7", "seeds = 3, -4",
                           "max_events = -5", "retries = +2"}) {
    const std::string error =
        parse_error(std::string("profiles = manic->ganef\nseeds = 1\n") + line + "\n");
    EXPECT_NE(error.find("line 3"), std::string::npos) << line << ": " << error;
  }
}

TEST(CampaignSpecParse, RetriesAreRangeCheckedIntoInt) {
  // 4294967297 used to truncate to one attempt.
  const std::string error =
      parse_error("profiles = manic->ganef\nseeds = 1\nretries = 4294967297\n");
  EXPECT_NE(error.find("line 3 (retries)"), std::string::npos) << error;
  std::istringstream in("profiles = manic->ganef\nseeds = 1\nretries = 2147483647\n");
  EXPECT_EQ(CampaignSpec::parse(in).retry.max_attempts, 2147483647);
}

TEST(CampaignSpecParse, SeedRangeStopsAtItsEnd) {
  // `s <= hi` never fails at UINT64_MAX: the loop wrapped and grew
  // without bound.
  std::istringstream in(
      "profiles = manic->ganef\nseeds = 18446744073709551614..18446744073709551615\n");
  const CampaignSpec spec = CampaignSpec::parse(in);
  ASSERT_EQ(spec.seeds.size(), 2u);
  EXPECT_EQ(spec.seeds[0], 18446744073709551614u);
  EXPECT_EQ(spec.seeds[1], 18446744073709551615u);
}

TEST(CampaignSpecParse, SeedRangesHoldAtMostAMillionSeeds) {
  for (const char* range : {"1..1000001", "0..18446744073709551615"}) {
    const std::string error = parse_error(
        std::string("profiles = manic->ganef\n# a comment line\nseeds = ") + range + "\n");
    EXPECT_NE(error.find("line 3 (seeds)"), std::string::npos) << range << ": " << error;
    EXPECT_NE(error.find("more than 1000000 seeds"), std::string::npos) << error;
  }
  std::istringstream in("profiles = manic->ganef\nseeds = 1..1000000\n");
  EXPECT_EQ(CampaignSpec::parse(in).seeds.size(), 1000000u);
}

TEST(CampaignSpec, NonFiniteDurationIntervalAndDeadlineAreRejected) {
  for (const char* line : {"duration = inf", "duration = nan", "interval = inf",
                           "interval = nan", "deadline = nan", "deadline = inf"}) {
    EXPECT_NE(parse_error(std::string("kind = hour\nprofiles = manic->ganef\nseeds = 1\n") +
                          line + "\n"),
              "")
        << line;
    EXPECT_NE(parse_error(std::string("profiles = manic->ganef\nseeds = 1\n") + line +
                          "\n"),
              "")
        << line;
  }
}

TEST(CampaignSpecParse, MissingFileThrows) {
  EXPECT_THROW((void)CampaignSpec::parse_file("/nonexistent/campaign.spec"),
               std::invalid_argument);
}

TEST(CampaignSpec, ModelTokensRoundTrip) {
  for (const model::ModelKind kind : model::all_model_kinds) {
    EXPECT_EQ(model_from_token(model_token(kind)), kind);
  }
  EXPECT_THROW((void)model_from_token("markov"), std::invalid_argument);
}

}  // namespace
}  // namespace pftk::exp::campaign
