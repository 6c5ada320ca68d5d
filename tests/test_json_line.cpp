// The shared JSON codec: escape() and g17() are the inverse of Object's
// getters for every byte, every double bit pattern and every u64 in
// reach; integers are exact or rejected; and no proper prefix of a line
// any pftk format writes parses.
#include "robust/json_line.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign/campaign_journal.hpp"
#include "obs/export.hpp"
#include "obs/flight/span_export.hpp"

namespace pftk::robust::json {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

/// The doubles the round-trip and formatting checks cover: fixed-seed
/// random bit patterns plus the edge values.
std::vector<double> sample_doubles() {
  std::vector<double> out = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MIN / 3.0,
                             std::nextafter(DBL_MIN, 0.0),
                             DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             0.1,
                             1e300};
  std::mt19937_64 rng(20260101);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t pattern = rng();
    double v = 0.0;
    std::memcpy(&v, &pattern, sizeof v);
    out.push_back(v);
  }
  return out;
}

TEST(JsonLine, EveryByteRoundTripsThroughEscape) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    const std::string line = "{\"s\":\"" + escape(one) + "\"}";
    EXPECT_EQ(Object(line).str("s"), one) << "byte " << b;
    all += one;
  }
  const std::string line = "{\"s\":\"" + escape(all) + "\"}";
  EXPECT_EQ(Object(line).str("s"), all);
  // The escape set itself: short escapes for five bytes, \u00xx for the
  // other control bytes, everything else verbatim.
  EXPECT_EQ(escape("\"\\\n\t\r"), "\\\"\\\\\\n\\t\\r");
  EXPECT_EQ(escape(std::string("\x01\x1f\x7f", 3)), "\\u0001\\u001f\x7f");
}

TEST(JsonLine, EscapesDecodeToTheirBytes) {
  EXPECT_EQ(Object(R"({"s":"a\u0001b"})").str("s"), "a\x01" "b");
  EXPECT_EQ(Object(R"({"s":"\/\b\fA"})").str("s"), "/\b\fA");
  // escape() never writes a \u escape above 007f, so none is read.
  EXPECT_THROW(Object(R"({"s":"\u00e9"})"), ParseError);
  EXPECT_THROW(Object(R"({"s":"\u00g1"})"), ParseError);
  EXPECT_THROW(Object(R"({"s":"\q"})"), ParseError);
  EXPECT_THROW(Object("{\"s\":\"raw\x01\"}"), ParseError);
}

TEST(JsonLine, DoublesRoundTripBitForBitAndMatchTheStream) {
  for (const double v : sample_doubles()) {
    const std::string text = g17(v);
    std::ostringstream stream;
    stream.imbue(std::locale::classic());
    stream << std::setprecision(17) << v;
    ASSERT_EQ(text, stream.str()) << "bits " << bits(v);

    const double back = Object("{\"v\":" + text + "}").f64("v");
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(back)) << text;
    } else {
      ASSERT_EQ(bits(back), bits(v)) << text;
    }
  }
}

TEST(JsonLine, UnsignedIntegersAreExact) {
  for (const std::uint64_t n : {std::uint64_t{0}, (std::uint64_t{1} << 53) + 1,
                                std::numeric_limits<std::uint64_t>::max()}) {
    const Object obj("{\"n\":" + std::to_string(n) + ",\"a\":[" + std::to_string(n) +
                     "]}");
    EXPECT_EQ(obj.u64("n"), n);
    EXPECT_EQ(obj.u64s("a"), std::vector<std::uint64_t>{n});
  }
  // A sign, fraction, exponent, overflow or non-number is a typed error.
  for (const char* bad : {"-1", "+1", "1.0", "1e3", "18446744073709551616", "inf",
                          "\"1\"", "null"}) {
    EXPECT_THROW((void)Object(std::string("{\"n\":") + bad + "}").u64("n"), ParseError)
        << bad;
  }
  const Object narrow(R"({"tid":4294967295,"big":4294967296})");
  EXPECT_EQ(narrow.u64("tid", UINT32_MAX), 4294967295u);
  EXPECT_THROW((void)narrow.u64("big", UINT32_MAX), ParseError);
}

TEST(JsonLine, GettersNameMissingAndMistypedFields) {
  const Object obj(R"({"s":"x","n":1,"a":[1,2],"o":{"k":[{}]},"t":true})");
  EXPECT_THROW((void)obj.str("missing"), ParseError);
  EXPECT_THROW((void)obj.str("n"), ParseError);
  EXPECT_THROW((void)obj.f64("s"), ParseError);
  EXPECT_THROW((void)obj.f64s("n"), ParseError);
  EXPECT_THROW((void)obj.objects("a"), ParseError);
  EXPECT_EQ(obj.f64s("a"), (std::vector<double>{1.0, 2.0}));
  try {
    (void)obj.u64("missing");
    FAIL() << "expected a ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'missing'"), std::string::npos);
  }
}

TEST(JsonLine, RejectsWhatIsNotOneObject) {
  for (const char* bad : {"", "   ", "[]", "\"s\"", "{\"a\":1} x", "{\"a\":1}{}",
                          "{\"a\":1,}", "{\"a\" 1}", "{a:1}", "{\"a\":12abc}",
                          "{\"a\":1e999}", "{\"a\":[1,]}"}) {
    EXPECT_THROW(Object{bad}, ParseError) << bad;
  }
  EXPECT_THROW(Object(std::string("{\"a\":1}\0", 8)), ParseError);  // NUL is no space
  EXPECT_NO_THROW(Object(" {\"a\" : [ 1 , 2 ] }\r"));
  const std::string deep = std::string(100, '[') + std::string(100, ']');
  EXPECT_THROW(Object("{\"a\":" + deep + "}"), ParseError);
}

TEST(JsonLine, EveryProperPrefixOfAWrittenLineIsRejected) {
  obs::ObsBundle bundle;
  obs::MetricValue metric;
  metric.name = "pftk_sent_total";
  metric.help = "segments sent";
  metric.value = 12345.0;
  bundle.metrics.metrics.push_back(metric);
  std::ostringstream obs_text;
  obs::write_obs_jsonl(obs_text, bundle);
  const std::string obs_body = obs_text.str();
  const std::string metric_line = obs_body.substr(obs_body.find('\n') + 1);

  obs::flight::DrainedSpans drained;
  drained.spans.push_back({"serve.req.served", 1, 1000, 2500, 7});
  drained.threads = 1;
  const std::string spans = obs::flight::render_spans_jsonl(drained, "test");
  const std::string span_line = spans.substr(spans.find('\n') + 1);

  exp::campaign::JournalEntry entry;
  entry.key = "manic->alps/s7/clean/full";
  entry.ok = true;
  entry.metrics.send_rate = 12.34;
  const std::string journal_line = entry.to_json();

  for (std::string line : {metric_line, span_line, journal_line}) {
    if (line.back() == '\n') {
      line.pop_back();
    }
    EXPECT_NO_THROW(Object{line}) << line;
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      EXPECT_THROW(Object(line.substr(0, cut)), ParseError) << line.substr(0, cut);
    }
  }
}

}  // namespace
}  // namespace pftk::robust::json
