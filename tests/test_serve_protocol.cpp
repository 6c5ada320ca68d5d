// Wire-grammar robustness: every malformed request line must become a
// *typed* ProtocolError carrying the response code and the best-effort
// request id — never a silent drop or an untyped exception. Includes the
// satellite contract that non-finite deadlines and zero/negative b are
// rejected with the same typed path as the model inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/model_registry.hpp"
#include "core/tcp_model_params.hpp"
#include "serve/protocol.hpp"

namespace pftk::serve {
namespace {

ProtocolError capture(const std::string& line) {
  try {
    (void)parse_request(line);
  } catch (const ProtocolError& e) {
    return e;
  }
  return ProtocolError(ErrCode::kInternal, "-", "parse unexpectedly succeeded");
}

TEST(ServeProtocol, ParsesModelRequestWithAllFields) {
  const Request req = parse_request(
      "MODEL req-1 p=0.02 rtt=0.1 t0=0.4 wm=16 b=2 model=approx "
      "deadline_ms=25");
  EXPECT_EQ(req.verb, Verb::kModel);
  EXPECT_EQ(req.id, "req-1");
  EXPECT_DOUBLE_EQ(req.params.p, 0.02);
  EXPECT_DOUBLE_EQ(req.params.rtt, 0.1);
  EXPECT_DOUBLE_EQ(req.params.t0, 0.4);
  EXPECT_DOUBLE_EQ(req.params.wm, 16.0);
  EXPECT_EQ(req.params.b, 2);
  EXPECT_EQ(req.kind, model::ModelKind::kApproximate);
  EXPECT_DOUBLE_EQ(req.deadline_ms, 25.0);
  EXPECT_TRUE(req.has_deadline());
}

TEST(ServeProtocol, FieldOrderIsFree) {
  const Request a = parse_request("MODEL x wm=8 t0=0.4 rtt=0.1 p=0.05");
  const Request b = parse_request("MODEL x p=0.05 rtt=0.1 t0=0.4 wm=8");
  EXPECT_DOUBLE_EQ(a.params.p, b.params.p);
  EXPECT_DOUBLE_EQ(a.params.wm, b.params.wm);
  EXPECT_EQ(a.kind, model::ModelKind::kFull);  // default
  EXPECT_FALSE(a.has_deadline());              // default: never expires
}

TEST(ServeProtocol, ParsesInverseCalibAndPing) {
  const Request inv = parse_request("INVERSE i1 rate=120 rtt=0.08 t0=0.3 wm=32");
  EXPECT_EQ(inv.verb, Verb::kInverse);
  EXPECT_DOUBLE_EQ(inv.target_rate, 120.0);

  const Request calib = parse_request("CALIB c1 trace=/tmp/t.tsv dupack=4");
  EXPECT_EQ(calib.verb, Verb::kCalib);
  EXPECT_EQ(calib.trace_path, "/tmp/t.tsv");
  EXPECT_EQ(calib.dupack_threshold, 4);

  const Request ping = parse_request("PING p1");
  EXPECT_EQ(ping.verb, Verb::kPing);
  EXPECT_EQ(ping.id, "p1");
}

TEST(ServeProtocol, TruncatedLinesAreBadRequestsWithRecoverableId) {
  // Missing required fields — id was fully received, so it is carried.
  const ProtocolError missing = capture("MODEL req-7 p=0.02 rtt=0.1");
  EXPECT_EQ(missing.code(), ErrCode::kBadRequest);
  EXPECT_EQ(missing.id(), "req-7");

  // A field cut mid-token.
  const ProtocolError cut = capture("MODEL req-8 p=0.02 rtt=");
  EXPECT_EQ(cut.code(), ErrCode::kBadRequest);
  EXPECT_EQ(cut.id(), "req-8");

  // Verb alone: no id to address.
  EXPECT_EQ(capture("MODEL").id(), "-");
  EXPECT_EQ(capture("").id(), "-");
  EXPECT_EQ(capture("NOSUCHVERB id p=1").code(), ErrCode::kBadRequest);
}

TEST(ServeProtocol, NonFiniteNumbersAreRejectedEverywhere) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    SCOPED_TRACE(bad);
    const std::string p_line =
        std::string("MODEL m p=") + bad + " rtt=0.1 t0=0.4 wm=8";
    EXPECT_EQ(capture(p_line).code(), ErrCode::kBadRequest);
    const std::string dl_line =
        std::string("MODEL m p=0.02 rtt=0.1 t0=0.4 wm=8 deadline_ms=") + bad;
    EXPECT_EQ(capture(dl_line).code(), ErrCode::kBadRequest);
  }
  EXPECT_EQ(capture("MODEL m p=0.02 rtt=0.1 t0=0.4 wm=8 deadline_ms=-5").code(),
            ErrCode::kBadRequest);
}

TEST(ServeProtocol, ZeroOrNegativeBIsATypedRejection) {
  // The same ModelParams::validate() rule the CLI enforces (exit 2)
  // surfaces on the wire as BADREQ — one validation authority.
  EXPECT_EQ(capture("MODEL m p=0.02 rtt=0.1 t0=0.4 wm=8 b=0").code(),
            ErrCode::kBadRequest);
  EXPECT_EQ(capture("MODEL m p=0.02 rtt=0.1 t0=0.4 wm=8 b=-1").code(),
            ErrCode::kBadRequest);
  EXPECT_EQ(capture("MODEL m p=0.02 rtt=0.1 t0=0.4 wm=8 b=1.5").code(),
            ErrCode::kBadRequest);
  EXPECT_THROW((void)(model::ModelParams{0.02, 0.1, 0.4, 0, 8.0}.validate()),
               model::ParamError);
}

TEST(ServeProtocol, IntegerFieldsOutsideIntRangeAreBadRequests) {
  // The range is checked before the double is cast to int: the cast
  // itself is undefined out of range (the sanitize build aborts on it).
  for (const char* line : {"MODEL m p=0.01 rtt=0.2 t0=1 wm=10 b=1e10",
                           "MODEL m p=0.01 rtt=0.2 t0=1 wm=10 b=-3e9",
                           "MODEL m p=0.01 rtt=0.2 t0=1 wm=10 b=2147483648",
                           "CALIB c trace=/tmp/t.tsv dupack=1e300"}) {
    SCOPED_TRACE(line);
    const ProtocolError e = capture(line);
    EXPECT_EQ(e.code(), ErrCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("outside the int range"), std::string::npos)
        << e.what();
  }
  // The grammar is unchanged: an integral real and int's extremes parse.
  EXPECT_EQ(parse_request("MODEL m p=0.01 rtt=0.2 t0=1 wm=10 b=2.0").params.b, 2);
  EXPECT_EQ(parse_request("CALIB c trace=/tmp/t.tsv dupack=2147483647").dupack_threshold,
            2147483647);
}

TEST(ServeProtocol, OutOfRangeModelInputsAreBadRequests) {
  // p=0 is *valid* (the window-limited regime); p >= 1 is not.
  EXPECT_NO_THROW((void)parse_request("MODEL m p=0 rtt=0.1 t0=0.4 wm=8"));
  EXPECT_EQ(capture("MODEL m p=1.5 rtt=0.1 t0=0.4 wm=8").code(),
            ErrCode::kBadRequest);
  EXPECT_EQ(capture("MODEL m p=0.02 rtt=-0.1 t0=0.4 wm=8").code(),
            ErrCode::kBadRequest);
  EXPECT_EQ(capture("INVERSE i rate=0 rtt=0.1 t0=0.4 wm=8").code(),
            ErrCode::kBadRequest);
  EXPECT_EQ(capture("INVERSE i rate=-3 rtt=0.1 t0=0.4 wm=8").code(),
            ErrCode::kBadRequest);
  EXPECT_EQ(capture("CALIB c dupack=3").code(), ErrCode::kBadRequest);
  EXPECT_EQ(capture("CALIB c trace=/tmp/t.tsv dupack=0").code(),
            ErrCode::kBadRequest);
  EXPECT_EQ(capture("MODEL m p=0.02 rtt=0.1 t0=0.4 wm=8 bogus=1").code(),
            ErrCode::kBadRequest);
}

TEST(ServeProtocol, RecoverRequestIdNeedsProofOfCompleteness) {
  // A third token (or more) proves the id token ended; a bare two-token
  // prefix may hold a half-transmitted id and must not be trusted.
  EXPECT_EQ(recover_request_id("MODEL req-42 p=0.1"), "req-42");
  EXPECT_EQ(recover_request_id("MODEL req-4"), "-");
  EXPECT_EQ(recover_request_id("MODEL"), "-");
  EXPECT_EQ(recover_request_id(""), "-");
}

TEST(ServeProtocol, ResponseRoundTrip) {
  const std::string ok = format_ok("r1", {{"rate", "123.5"}, {"model", "full"}});
  EXPECT_EQ(ok, "OK r1 rate=123.5 model=full");
  const Response parsed = parse_response(ok);
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.id, "r1");
  ASSERT_NE(parsed.find("rate"), nullptr);
  EXPECT_EQ(*parsed.find("rate"), "123.5");
  EXPECT_EQ(parsed.find("absent"), nullptr);

  const std::string err = format_err("r2", ErrCode::kBusy, {{"retry_ms", "40"}});
  EXPECT_EQ(err, "ERR r2 BUSY retry_ms=40");
  const Response perr = parse_response(err);
  EXPECT_FALSE(perr.ok);
  EXPECT_EQ(perr.code, ErrCode::kBusy);
  ASSERT_NE(perr.find("retry_ms"), nullptr);
  EXPECT_EQ(*perr.find("retry_ms"), "40");
}

TEST(ServeProtocol, MalformedResponsesThrowOnTheClientSide) {
  EXPECT_THROW((void)parse_response(""), ProtocolError);
  EXPECT_THROW((void)parse_response("OK"), ProtocolError);
  EXPECT_THROW((void)parse_response("ERR r1"), ProtocolError);
  EXPECT_THROW((void)parse_response("ERR r1 NOSUCHCODE"), ProtocolError);
  EXPECT_THROW((void)parse_response("WHAT r1 rate=1"), ProtocolError);
  EXPECT_THROW((void)parse_response("OK r1 =nokey"), ProtocolError);
}

TEST(ServeProtocol, NumbersRoundTripAtFullPrecision) {
  // INVERSE's wm_required can be infinite; strtod reads "inf" back.
  for (const double v : {123.456789012345678, 1e-9, 0.3, 7.0 / 3.0,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::denorm_min() * 12345}) {
    const std::string text = format_number(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::strtod(text.c_str(), nullptr)),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(ServeProtocol, NumberGrammarIsPinnedByATable) {
  // The numeric grammar strtod gives the parser today, one token per row
  // as `p=`: the value's bits when accepted, the exact BADREQ otherwise.
  // from_chars would differ (no '+', no hex, no leading whitespace), so a
  // parser change must edit this table on purpose. The tokenizer splits
  // only on space and tab; strtod skips a leading \v or \f itself.
  const std::pair<const char*, const char*> table[] = {
      {"0.01", "3f847ae147ae147b"},
      {"1e-2", "3f847ae147ae147b"},
      {"1E-2", "3f847ae147ae147b"},
      {"00.01", "3f847ae147ae147b"},
      {".5", "3fe0000000000000"},
      {"-0", "8000000000000000"},
      {"0.0", "0000000000000000"},
      {"0.999", "3feff7ced916872b"},
      {"2.2250738585072014e-308", "0010000000000000"},
      {"+0.01", "3f847ae147ae147b"},
      {"0x1p-7", "3f80000000000000"},
      {"0X1P-7", "3f80000000000000"},
      {"\v0.01", "3f847ae147ae147b"},
      {"\f0.01", "3f847ae147ae147b"},
      {"5.", "BADREQ m: ModelParams: p must be in [0, 1)"},
      {"1", "BADREQ m: ModelParams: p must be in [0, 1)"},
      {"-0.01", "BADREQ m: ModelParams: p must be in [0, 1)"},
      {"inf", "BADREQ m: 'p' must be finite (got inf)"},
      {"-inf", "BADREQ m: 'p' must be finite (got -inf)"},
      {"infinity", "BADREQ m: 'p' must be finite (got infinity)"},
      {"nan", "BADREQ m: 'p' must be finite (got nan)"},
      {"NaN", "BADREQ m: 'p' must be finite (got NaN)"},
      {"1e400", "BADREQ m: bad number '1e400' for 'p'"},
      {"1e-400", "BADREQ m: bad number '1e-400' for 'p'"},
      {"4e-320", "BADREQ m: bad number '4e-320' for 'p'"},
      {"0.01x", "BADREQ m: bad number '0.01x' for 'p'"},
      {"1e", "BADREQ m: bad number '1e' for 'p'"},
      {"1e+", "BADREQ m: bad number '1e+' for 'p'"},
      {"0x", "BADREQ m: bad number '0x' for 'p'"},
      {"1_0", "BADREQ m: bad number '1_0' for 'p'"},
      {"", "BADREQ m: empty value for 'p'"},
  };
  for (const auto& [token, want] : table) {
    SCOPED_TRACE(std::string("p=") + token);
    std::string got;
    try {
      const Request req =
          parse_request(std::string("MODEL m p=") + token + " rtt=0.1 t0=0.4 wm=8");
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(req.params.p)));
      got = hex;
    } catch (const ProtocolError& e) {
      got = std::string(err_code_name(e.code())) + " " + e.id() + ": " + e.what();
    }
    EXPECT_EQ(got, want);
  }
}

TEST(ServeProtocol, ErrCodeNamesRoundTrip) {
  for (const ErrCode code :
       {ErrCode::kBadRequest, ErrCode::kTooBig, ErrCode::kBusy,
        ErrCode::kDeadlineExceeded, ErrCode::kShutdown, ErrCode::kInternal}) {
    EXPECT_EQ(err_code_from_name(err_code_name(code)), code);
  }
  EXPECT_THROW((void)err_code_from_name("NOPE"), std::invalid_argument);
}

}  // namespace
}  // namespace pftk::serve
