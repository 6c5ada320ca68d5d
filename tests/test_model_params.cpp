#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/batch_eval.hpp"
#include "core/model_registry.hpp"
#include "core/tcp_model_params.hpp"

namespace pftk::model {
namespace {

TEST(ModelParams, DefaultsAreValid) {
  ModelParams p;
  EXPECT_TRUE(p.valid());
  EXPECT_NO_THROW(p.validate());
}

TEST(ModelParams, RejectsBadLossProbability) {
  ModelParams p;
  p.p = -0.1;
  EXPECT_FALSE(p.valid());
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.p = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.p = 0.0;  // p == 0 is allowed (window-limited regime)
  EXPECT_NO_THROW(p.validate());
}

TEST(ModelParams, RejectsNonPositiveTimes) {
  ModelParams p;
  p.rtt = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.rtt = 0.1;
  p.t0 = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ModelParams, RejectsBadAckFactorAndWindow) {
  ModelParams p;
  p.b = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.b = 1;
  p.wm = 0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// The rejection is *typed*: every validate() failure is a ParamError
// (an invalid_argument subtype), which is what the CLI maps to exit 2
// and the serve protocol maps to BADREQ — one validation authority.
TEST(ModelParams, ValidateThrowsTheTypedParamError) {
  ModelParams p;
  p.b = -2;
  EXPECT_THROW(p.validate(), ParamError);
  p.b = 0;
  EXPECT_THROW(p.validate(), ParamError);
  p.b = 1;
  p.t0 = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(p.validate(), ParamError);
  p.t0 = 0.4;
  p.rtt = std::numeric_limits<double>::infinity();
  EXPECT_THROW(p.validate(), ParamError);
  p.rtt = 0.1;
  EXPECT_NO_THROW(p.validate());
  // ParamError stays catchable as the untyped base for old call sites.
  p.p = -1.0;
  try {
    p.validate();
    FAIL() << "negative p passed validate()";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(dynamic_cast<const ParamError*>(&e), nullptr);
  }
}

TEST(ModelParams, RejectsNonFinite) {
  ModelParams p;
  p.p = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(p.valid());
  p.p = 0.01;
  p.rtt = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(p.valid());
}

// A NaN silently fails every range comparison, so validate() must call
// out non-finite fields explicitly rather than mislabel them as range
// errors (or let them sail through into the formulas).
TEST(ModelParams, ValidateNamesEachNonFiniteField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double ModelParams::* field;
    const char* name;
  };
  const Case cases[] = {{&ModelParams::p, "p"},
                        {&ModelParams::rtt, "rtt"},
                        {&ModelParams::t0, "t0"},
                        {&ModelParams::wm, "wm"}};
  for (const Case& c : cases) {
    for (const double bad : {nan, inf, -inf}) {
      ModelParams params;
      params.*(c.field) = bad;
      try {
        params.validate();
        FAIL() << c.name << " = non-finite passed validate()";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(c.name), std::string::npos) << what;
        EXPECT_NE(what.find("finite"), std::string::npos) << what;
      }
    }
  }
}

TEST(ModelParams, NegativeZeroCountsAsZero) {
  ModelParams p;
  p.p = -0.0;  // counts as zero, i.e. the window-limited regime
  EXPECT_TRUE(p.valid());
  EXPECT_NO_THROW(p.validate());
}

// Eq (32)'s 1/p terms overflow below DBL_MIN: p = 4e-320 evaluated to
// NaN and p = 5e-309 to inf. The domain is 0 or [DBL_MIN, 1).
TEST(ModelParams, SubnormalLossRatesAreOutsideTheDomain) {
  ModelParams p;
  for (const double bad : {std::numeric_limits<double>::denorm_min(), 4e-320,
                           5e-309, std::nextafter(DBL_MIN, 0.0)}) {
    p.p = bad;
    EXPECT_FALSE(p.valid()) << bad;
    try {
      p.validate();
      ADD_FAILURE() << bad << " passed validate()";
    } catch (const ParamError& e) {
      EXPECT_NE(std::string(e.what()).find("ModelParams: p must be"),
                std::string::npos)
          << e.what();
    }
  }
  for (const double good : {0.0, -0.0, DBL_MIN}) {
    p.p = good;
    EXPECT_TRUE(p.valid()) << good;
    EXPECT_NO_THROW(p.validate()) << good;
  }
}

TEST(ModelParams, PreparedModelRejectsSubnormalP) {
  ModelParams base;
  base.rtt = 0.1;
  base.t0 = 0.4;
  base.wm = 8.0;
  const PreparedModel full(ModelKind::kFull, base);
  EXPECT_THROW((void)full(std::numeric_limits<double>::denorm_min()),
               std::invalid_argument);
  EXPECT_THROW((void)full(std::nextafter(DBL_MIN, 0.0)), std::invalid_argument);
  EXPECT_THROW((void)full(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)full(1.0), std::invalid_argument);
  for (const double good : {0.0, -0.0, DBL_MIN, 0.01}) {
    base.p = good;
    const double rate = full(good);
    EXPECT_TRUE(std::isfinite(rate)) << good;
    EXPECT_EQ(rate, evaluate_model(ModelKind::kFull, base)) << good;
  }
}

TEST(ModelParams, DescribeMentionsFields) {
  ModelParams p;
  p.p = 0.02;
  const std::string text = p.describe();
  EXPECT_NE(text.find("p=0.02"), std::string::npos);
  EXPECT_NE(text.find("RTT="), std::string::npos);
  EXPECT_NE(text.find("Wm="), std::string::npos);
}

TEST(ModelParams, DescribeUnlimitedWindow) {
  ModelParams p;
  p.wm = ModelParams::unlimited_window;
  EXPECT_NE(p.describe().find("Wm=unlimited"), std::string::npos);
}

}  // namespace
}  // namespace pftk::model
