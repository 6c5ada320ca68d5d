// `pftk prof` aggregation: inclusive/exclusive self-time from nesting,
// percentiles, the parent-child rollup, and the serve accounting
// identity re-derived from marker-span counts with its three-state
// verdict (OK / VIOLATED / INDETERMINATE when spans were dropped).
#include "obs/flight/prof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "robust/json_line.hpp"

namespace flight = pftk::obs::flight;

namespace {

flight::DrainedSpan span(const char* name, std::uint32_t tid,
                         std::uint64_t begin_ns, std::uint64_t end_ns,
                         std::uint64_t arg = 0) {
  flight::DrainedSpan s;
  s.name = name;
  s.tid = tid;
  s.begin_ns = begin_ns;
  s.end_ns = end_ns;
  s.arg = arg;
  return s;
}

/// Drain-order invariant the profiler relies on: begin asc, then end desc.
flight::DrainedSpans make(std::vector<flight::DrainedSpan> spans,
                          std::uint64_t dropped = 0) {
  std::sort(spans.begin(), spans.end(),
            [](const flight::DrainedSpan& a, const flight::DrainedSpan& b) {
              if (a.begin_ns != b.begin_ns) {
                return a.begin_ns < b.begin_ns;
              }
              return a.end_ns > b.end_ns;
            });
  flight::DrainedSpans out;
  std::set<std::uint32_t> tids;
  for (const auto& s : spans) {
    tids.insert(s.tid);
  }
  out.spans = std::move(spans);
  out.dropped = dropped;
  out.threads = static_cast<std::uint32_t>(tids.size());
  return out;
}

TEST(ProfTest, ExclusiveSubtractsDirectChildrenOnly) {
  // outer [0,100] > mid [10,60] > leaf [20,30]; sibling leaf [70,80].
  const auto report = flight::profile_spans(make({
      span("outer", 1, 0, 100),
      span("mid", 1, 10, 60),
      span("leaf", 1, 20, 30),
      span("leaf", 1, 70, 80),
  }));
  ASSERT_EQ(report.names.size(), 3u);
  const auto find = [&](const std::string& name) -> const flight::NameStats& {
    for (const auto& stats : report.names) {
      if (stats.name == name) {
        return stats;
      }
    }
    throw std::runtime_error("missing " + name);
  };
  // outer: 100 inclusive, minus direct children mid(50) + leaf(10) = 40.
  EXPECT_EQ(find("outer").inclusive_ns, 100u);
  EXPECT_EQ(find("outer").exclusive_ns, 40u);
  // mid: 50 inclusive, minus nested leaf(10) = 40 exclusive. The
  // grandchild must NOT also be charged to outer.
  EXPECT_EQ(find("mid").inclusive_ns, 50u);
  EXPECT_EQ(find("mid").exclusive_ns, 40u);
  EXPECT_EQ(find("leaf").count, 2u);
  EXPECT_EQ(find("leaf").inclusive_ns, 20u);
  EXPECT_EQ(find("leaf").exclusive_ns, 20u);
  EXPECT_EQ(report.wall_ns, 100u);
}

TEST(ProfTest, RollupEdgesCountDirectParentChildPairs) {
  const auto report = flight::profile_spans(make({
      span("outer", 1, 0, 100),
      span("mid", 1, 10, 60),
      span("leaf", 1, 20, 30),
      span("leaf", 1, 70, 80),
  }));
  ASSERT_EQ(report.rollup.size(), 3u);
  // Sorted by total time: outer<-mid (50) first.
  EXPECT_EQ(report.rollup[0].parent, "outer");
  EXPECT_EQ(report.rollup[0].child, "mid");
  EXPECT_EQ(report.rollup[0].total_ns, 50u);
  bool saw_mid_leaf = false;
  bool saw_outer_leaf = false;
  for (const auto& edge : report.rollup) {
    if (edge.parent == "mid" && edge.child == "leaf") {
      saw_mid_leaf = true;
      EXPECT_EQ(edge.count, 1u);
      EXPECT_EQ(edge.total_ns, 10u);
    }
    if (edge.parent == "outer" && edge.child == "leaf") {
      saw_outer_leaf = true;
      EXPECT_EQ(edge.count, 1u);
      EXPECT_EQ(edge.total_ns, 10u);
    }
  }
  EXPECT_TRUE(saw_mid_leaf);
  EXPECT_TRUE(saw_outer_leaf);
}

TEST(ProfTest, ThreadsNestIndependently) {
  // Identical timestamps on two tids must not nest across threads.
  const auto report = flight::profile_spans(make({
      span("a", 1, 0, 100),
      span("b", 2, 10, 60),
  }));
  EXPECT_TRUE(report.rollup.empty());
  EXPECT_EQ(report.threads, 2u);
}

TEST(ProfTest, PercentilesAreExactOrderStatistics) {
  std::vector<flight::DrainedSpan> spans;
  // 100 sequential spans with durations 1..100 ns.
  std::uint64_t t = 0;
  for (std::uint64_t d = 1; d <= 100; ++d) {
    spans.push_back(span("work", 1, t, t + d));
    t += d + 10;
  }
  const auto report = flight::profile_spans(make(std::move(spans)));
  ASSERT_EQ(report.names.size(), 1u);
  EXPECT_EQ(report.names[0].count, 100u);
  // Lower order statistic at p over n=100 samples 1..100: idx = p*99.
  EXPECT_EQ(report.names[0].p50_ns, 50u);
  EXPECT_EQ(report.names[0].p99_ns, 99u);
  EXPECT_EQ(report.names[0].max_ns, 100u);
}

TEST(ProfTest, ServeIdentityHoldsFromMarkerCounts) {
  std::vector<flight::DrainedSpan> spans;
  std::uint64_t t = 0;
  const auto markers = [&](const char* name, int n) {
    for (int i = 0; i < n; ++i) {
      spans.push_back(span(name, 1, t, t));
      ++t;
    }
  };
  markers("serve.req.admitted", 10);
  markers("serve.req.served", 7);
  markers("serve.req.shed", 2);
  markers("serve.req.deadline_missed", 1);
  const auto report = flight::profile_spans(make(std::move(spans)));
  ASSERT_TRUE(report.serve.present);
  EXPECT_EQ(report.serve.requests, 10u);
  EXPECT_EQ(report.serve.served, 7u);
  EXPECT_EQ(report.serve.shed, 2u);
  EXPECT_EQ(report.serve.deadline_missed, 1u);
  EXPECT_EQ(report.serve.internal_errors, 0u);
  EXPECT_TRUE(report.serve.holds());
  const std::string text = flight::render_prof_text(report);
  EXPECT_NE(text.find("[OK]"), std::string::npos);
}

TEST(ProfTest, ServeIdentityViolationIsReported) {
  std::vector<flight::DrainedSpan> spans;
  spans.push_back(span("serve.req.admitted", 1, 0, 0));
  spans.push_back(span("serve.req.admitted", 1, 1, 1));
  spans.push_back(span("serve.req.served", 1, 2, 2));
  const auto report = flight::profile_spans(make(std::move(spans)));
  ASSERT_TRUE(report.serve.present);
  EXPECT_FALSE(report.serve.holds());
  const std::string text = flight::render_prof_text(report);
  EXPECT_NE(text.find("[VIOLATED]"), std::string::npos);
}

TEST(ProfTest, NonServeRecordingsOmitTheIdentity) {
  const auto report = flight::profile_spans(make({span("sim.run_slice", 1, 0, 5)}));
  EXPECT_FALSE(report.serve.present);
  const std::string text = flight::render_prof_text(report);
  EXPECT_EQ(text.find("serve identity"), std::string::npos);
}

TEST(ProfTest, DroppedSpansSurfaceAsWarning) {
  const auto report =
      flight::profile_spans(make({span("work", 1, 0, 5)}, /*dropped=*/17));
  EXPECT_EQ(report.dropped, 17u);
  const std::string text = flight::render_prof_text(report);
  EXPECT_NE(text.find("warning: 17"), std::string::npos);
}

TEST(ProfTest, JsonHasSchemaAndIdentityBlock) {
  std::vector<flight::DrainedSpan> spans;
  spans.push_back(span("serve.req.admitted", 1, 0, 0));
  spans.push_back(span("serve.req.served", 1, 1, 1));
  const auto report = flight::profile_spans(make(std::move(spans)));
  std::ostringstream os;
  flight::write_prof_json(os, report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"pftk-prof/2\""), std::string::npos);
  EXPECT_NE(json.find("\"serve_identity\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"ok\""), std::string::npos);
  EXPECT_EQ(json.find("\"holds\""), std::string::npos);
}

TEST(ProfTest, JsonStaysValidForNamesThatNeedEscaping) {
  // A quote, newline or control byte in a span name must come out
  // escaped, or the report is no longer JSON.
  const std::string awkward = "a\"b\nc\x01" "d";
  const auto report = flight::profile_spans(
      make({span(awkward.c_str(), 1, 0, 10), span("leaf", 1, 2, 4)}));
  std::ostringstream os;
  flight::write_prof_json(os, report);
  const pftk::robust::json::Object doc(os.str());
  const auto names = doc.objects("names");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0].str("name"), awkward);
  EXPECT_EQ(doc.objects("rollup").at(0).str("parent"), awkward);
}

/// A serve recording of `admitted` requests of which `served` were
/// answered, with `dropped` spans lost to ring overwrite.
flight::ProfReport serve_recording(int admitted, int served,
                                   std::uint64_t dropped) {
  std::vector<flight::DrainedSpan> spans;
  std::uint64_t t = 0;
  for (int i = 0; i < admitted; ++i, ++t) {
    spans.push_back(span("serve.req.admitted", 1, t, t));
  }
  for (int i = 0; i < served; ++i, ++t) {
    spans.push_back(span("serve.req.served", 1, t, t));
  }
  return flight::profile_spans(make(std::move(spans), dropped));
}

std::string json_of(const flight::ProfReport& report) {
  std::ostringstream os;
  flight::write_prof_json(os, report);
  return os.str();
}

TEST(ProfTest, LosslessBalancedRecordingIsOk) {
  const auto report = serve_recording(5, 5, 0);
  EXPECT_EQ(report.serve_verdict(), flight::ServeVerdict::kOk);
  EXPECT_NE(flight::render_prof_text(report).find("[OK]"), std::string::npos);
  EXPECT_NE(json_of(report).find("\"verdict\":\"ok\""), std::string::npos);
}

TEST(ProfTest, LosslessUnbalancedRecordingIsViolated) {
  const auto report = serve_recording(5, 4, 0);
  EXPECT_EQ(report.serve_verdict(), flight::ServeVerdict::kViolated);
  EXPECT_NE(flight::render_prof_text(report).find("[VIOLATED]"),
            std::string::npos);
  EXPECT_NE(json_of(report).find("\"verdict\":\"violated\""),
            std::string::npos);
}

TEST(ProfTest, DroppedSpansMakeTheVerdictIndeterminate) {
  // Ring overwrite made the counts lower bounds: neither the unbalanced
  // nor the balanced counts may be reported as VIOLATED or OK.
  for (const int served : {3, 5}) {
    SCOPED_TRACE(served);
    const auto report = serve_recording(5, served, 87391);
    EXPECT_EQ(report.serve_verdict(), flight::ServeVerdict::kIndeterminate);
    const std::string text = flight::render_prof_text(report);
    EXPECT_NE(text.find("[INDETERMINATE: 87391 spans dropped]"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("[VIOLATED]"), std::string::npos);
    EXPECT_EQ(text.find("[OK]"), std::string::npos);
    EXPECT_NE(json_of(report).find("\"verdict\":\"indeterminate\""),
              std::string::npos);
  }
}

}  // namespace
