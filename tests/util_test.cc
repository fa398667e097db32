// Tests for the utility substrate: Status/Result, formatting, the
// deterministic RNG, and the pretty-printer.

#include <gtest/gtest.h>

#include <set>

#include "core/relation.h"
#include "util/format.h"
#include "util/pretty.h"
#include "util/random.h"
#include "util/status.h"

namespace hrdm {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ConstraintViolation("key clash");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(s.ToString(), "constraint-violation: key clash");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, ValueAndError) {
  auto ok = Half(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  EXPECT_EQ(ok.ValueOr(-1), 5);

  auto err = Half(7);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ValueOr(-1), -1);
}

Result<int> Quarter(int x) {
  HRDM_ASSIGN_OR_RETURN(int h, Half(x));
  HRDM_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(7).ok());
}

TEST(FormatTest, Ints) {
  std::string s;
  AppendInt(&s, -42);
  AppendInt(&s, 0);
  EXPECT_EQ(s, "-420");
}

TEST(FormatTest, DoublesRoundTrip) {
  for (double d : {0.0, 1.5, -3.25, 1.0 / 3.0, 1e-9, 123456789.123}) {
    std::string s;
    AppendDouble(&s, d);
    EXPECT_EQ(std::stod(s), d) << s;
  }
}

/// Inverse of QuoteString on the contents (no surrounding quotes):
/// resolves backslash escapes.
std::string UnescapeString(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out.push_back(s[i]);
  }
  return out;
}

TEST(FormatTest, QuoteUnescapeRoundTrip) {
  for (const std::string& raw :
       {std::string("plain"), std::string("with \"quotes\""),
        std::string("back\\slash"), std::string()}) {
    std::string quoted = QuoteString(raw);
    ASSERT_GE(quoted.size(), 2u);
    EXPECT_EQ(UnescapeString(
                  std::string_view(quoted).substr(1, quoted.size() - 2)),
              raw);
  }
}

TEST(FormatTest, JoinAndIdentifier) {
  EXPECT_TRUE(IsIdentifier("abc_12"));
  EXPECT_TRUE(IsIdentifier("_x"));
  EXPECT_FALSE(IsIdentifier("1x"));
  EXPECT_FALSE(IsIdentifier("a b"));
  EXPECT_FALSE(IsIdentifier(""));
}

TEST(FormatTest, StrPrintf) {
  EXPECT_EQ(StrPrintf("%d-%s", 7, "x"), "7-x");
}

TEST(RngTest, DeterministicAndSeedSensitive) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_EQ(rng.Uniform(5, 5), 5);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrettyTest, HistoryAndSnapshotRendering) {
  auto scheme = *RelationScheme::Make(
      "emp",
      {{"Name", DomainType::kString, Span(0, 9),
        InterpolationKind::kDiscrete},
       {"Salary", DomainType::kInt, Span(0, 9),
        InterpolationKind::kStepwise}},
      {"Name"});
  Relation r(scheme);
  Tuple::Builder b(scheme, Span(0, 9));
  b.SetConstant("Name", Value::String("john"));
  b.SetAt("Salary", 0, Value::Int(10));
  ASSERT_TRUE(r.Insert(*std::move(b).Build()).ok());

  const std::string history = RenderHistory(r);
  EXPECT_NE(history.find("lifespan"), std::string::npos);
  EXPECT_NE(history.find("john"), std::string::npos);
  EXPECT_NE(history.find("{[0,9]}"), std::string::npos);

  const std::string snap = RenderSnapshot(r, 5);
  // The stepwise model level answers 10 at t=5 even though only t=0 is
  // stored.
  EXPECT_NE(snap.find("10"), std::string::npos);
  EXPECT_NE(snap.find("@ t5"), std::string::npos);

  const std::string outside = RenderSnapshot(r, 50);
  EXPECT_EQ(outside.find("john"), std::string::npos);
}

}  // namespace
}  // namespace hrdm
