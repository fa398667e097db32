// Tests for the HRQL lexer and parser, including the ToString→Parse
// round-trip property on randomly generated expression trees.

#include "query/parser.h"

#include <gtest/gtest.h>

#include "query/lexer.h"
#include "util/random.h"

namespace hrdm::query {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize(R"(emp ( ) , { } [ ] = != < <= > >= 42 -7 3.5 "s" @17)");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdentifier, TokenKind::kLParen,
                TokenKind::kRParen, TokenKind::kComma, TokenKind::kLBrace,
                TokenKind::kRBrace, TokenKind::kLBracket,
                TokenKind::kRBracket, TokenKind::kEq, TokenKind::kNe,
                TokenKind::kLt, TokenKind::kLe, TokenKind::kGt,
                TokenKind::kGe, TokenKind::kInt, TokenKind::kInt,
                TokenKind::kDouble, TokenKind::kString, TokenKind::kTime,
                TokenKind::kEnd}));
}

TEST(LexerTest, StringEscapes) {
  auto tokens = Tokenize(R"("a\"b\\c")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a\"b\\c");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("@x").ok());
  EXPECT_FALSE(Tokenize("!x").ok());
  EXPECT_FALSE(Tokenize("#").ok());
  EXPECT_FALSE(Tokenize("1.2.3").ok());
}

TEST(ParserTest, BaseRelation) {
  auto e = ParseExpr("emp");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kRelationRef);
  EXPECT_EQ((*e)->relation, "emp");
}

TEST(ParserTest, SelectIfVariants) {
  auto e = ParseExpr("select_if(emp, Salary >= 30000, exists)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kSelectIf);
  EXPECT_EQ((*e)->quantifier, Quantifier::kExists);
  EXPECT_EQ((*e)->window, nullptr);

  auto w = ParseExpr("select_if(emp, Salary >= 30000, forall, {[0,49]})");
  ASSERT_TRUE(w.ok());
  EXPECT_EQ((*w)->quantifier, Quantifier::kForall);
  ASSERT_NE((*w)->window, nullptr);
  EXPECT_EQ((*w)->window->literal.ToString(), "{[0,49]}");
}

TEST(ParserTest, SelectWhenWithConjunction) {
  auto e = ParseExpr(
      R"(select_when(emp, Name = "john" and Salary = 30000))");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kSelectWhen);
  EXPECT_EQ((*e)->predicate->ToString(),
            "Name = \"john\" AND Salary = 30000");
}

TEST(ParserTest, PredicateLiteralKinds) {
  EXPECT_TRUE(ParseExpr("select_when(r, A = 3.5)").ok());
  EXPECT_TRUE(ParseExpr("select_when(r, A = true)").ok());
  EXPECT_TRUE(ParseExpr("select_when(r, A = @17)").ok());
  EXPECT_TRUE(ParseExpr("select_when(r, A != B)").ok());
}

TEST(ParserTest, ProjectAndSlices) {
  auto p = ParseExpr("project(emp, Name, Salary)");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->attrs, (std::vector<std::string>{"Name", "Salary"}));

  auto ts = ParseExpr("timeslice(emp, {[0,9],[20]})");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ((*ts)->window->literal.ToString(), "{[0,9],[20]}");

  auto dyn = ParseExpr("dynslice(emp, Ref)");
  ASSERT_TRUE(dyn.ok());
  EXPECT_EQ((*dyn)->attr_a, "Ref");
}

TEST(ParserTest, BinariesAndJoins) {
  EXPECT_TRUE(ParseExpr("union(a, b)").ok());
  EXPECT_TRUE(ParseExpr("ominus(a, b)").ok());
  EXPECT_TRUE(ParseExpr("product(a, b)").ok());
  auto j = ParseExpr("join(a, b, X <= Y)");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->op, CompareOp::kLe);
  EXPECT_TRUE(ParseExpr("natjoin(a, b)").ok());
  auto tj = ParseExpr("timejoin(a, b, Ref)");
  ASSERT_TRUE(tj.ok());
  EXPECT_EQ((*tj)->attr_a, "Ref");
}

TEST(ParserTest, LifespanSort) {
  auto ls = ParseLsExpr("lunion({[0,4]}, when(select_when(r, A = 1)))");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ((*ls)->kind, LsExprKind::kUnion);
  // WHEN results can parameterize TIME-SLICE (the multi-sorted algebra).
  EXPECT_TRUE(ParseExpr("timeslice(r, when(r))").ok());
  EXPECT_TRUE(
      ParseExpr("select_if(r, A = 1, exists, lintersect(when(r), {[0,5]}))")
          .ok());
}

TEST(ParserTest, EmptyLifespanLiteral) {
  auto ls = ParseLsExpr("{}");
  ASSERT_TRUE(ls.ok());
  EXPECT_TRUE((*ls)->literal.empty());
}

TEST(ParserTest, NestedComposition) {
  auto e = ParseExpr(
      "project(select_when(timeslice(union(emp, emp2), {[0,49]}), "
      "Salary > 10), Name)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kProject);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseExpr("").ok());
  EXPECT_FALSE(ParseExpr("select_if(emp)").ok());
  EXPECT_FALSE(ParseExpr("project(emp)").ok());
  EXPECT_FALSE(ParseExpr("union(a)").ok());
  EXPECT_FALSE(ParseExpr("emp extra").ok());
  EXPECT_FALSE(ParseExpr("timeslice(emp, {[5,3]})").ok());
  EXPECT_FALSE(ParseExpr("select_if(emp, A = 1, sometimes)").ok());
  EXPECT_FALSE(ParseLsExpr("emp").ok());
}

TEST(ParserTest, ParseQueryTriesBothSorts) {
  auto q1 = ParseQuery("select_when(r, A = 1)");
  ASSERT_TRUE(q1.ok());
  EXPECT_TRUE(std::holds_alternative<ExprPtr>(*q1));
  auto q2 = ParseQuery("when(r)");
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(std::holds_alternative<LsExprPtr>(*q2));
}

// --- Round-trip property ------------------------------------------------------

ExprPtr RandomExpr(Rng* rng, int depth);

LsExprPtr RandomLs(Rng* rng, int depth) {
  if (depth <= 0 || rng->Chance(0.5)) {
    std::vector<Interval> ivs;
    for (int i = 0; i < rng->Uniform(0, 2); ++i) {
      TimePoint b = rng->Uniform(0, 40);
      ivs.push_back(Interval(b, b + rng->Uniform(0, 9)));
    }
    return LsLiteral(Lifespan::FromIntervals(std::move(ivs)));
  }
  switch (rng->Uniform(0, 3)) {
    case 0:
      return WhenE(RandomExpr(rng, depth - 1));
    case 1:
      return LsBinary(LsExprKind::kUnion, RandomLs(rng, depth - 1),
                      RandomLs(rng, depth - 1));
    case 2:
      return LsBinary(LsExprKind::kIntersect, RandomLs(rng, depth - 1),
                      RandomLs(rng, depth - 1));
    default:
      return LsBinary(LsExprKind::kDifference, RandomLs(rng, depth - 1),
                      RandomLs(rng, depth - 1));
  }
}

Predicate RandomPredicate(Rng* rng) {
  const CompareOp op = static_cast<CompareOp>(rng->Uniform(0, 5));
  if (rng->Chance(0.3)) {
    return Predicate::AttrAttr("A0", op, "A1");
  }
  switch (rng->Uniform(0, 2)) {
    case 0:
      return Predicate::AttrConst("A0", op, Value::Int(rng->Uniform(0, 99)));
    case 1:
      return Predicate::AttrConst("A0", op,
                                  Value::String(rng->Identifier(4)));
    default:
      return Predicate::AttrConst("A0", op,
                                  Value::Time(rng->Uniform(0, 50)));
  }
}

ExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth <= 0) return Rel("r" + std::to_string(rng->Uniform(0, 3)));
  switch (rng->Uniform(0, 9)) {
    case 0:
      return SelectIfE(RandomExpr(rng, depth - 1), RandomPredicate(rng),
                       rng->Chance(0.5) ? Quantifier::kExists
                                        : Quantifier::kForall,
                       rng->Chance(0.5) ? RandomLs(rng, depth - 1) : nullptr);
    case 1:
      return SelectWhenE(RandomExpr(rng, depth - 1), RandomPredicate(rng));
    case 2:
      return ProjectE(RandomExpr(rng, depth - 1), {"Id", "A0"});
    case 3:
      return TimeSliceE(RandomExpr(rng, depth - 1), RandomLs(rng, depth - 1));
    case 4:
      return DynSliceE(RandomExpr(rng, depth - 1), "Ref");
    case 5:
      return Binary(static_cast<ExprKind>(
                        static_cast<int>(ExprKind::kUnion) +
                        rng->Uniform(0, 6)),
                    RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 6:
      return ThetaJoinE(RandomExpr(rng, depth - 1),
                        RandomExpr(rng, depth - 1), "A0",
                        static_cast<CompareOp>(rng->Uniform(0, 5)), "B0");
    case 7:
      return Binary(ExprKind::kNaturalJoin, RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
    default:
      return TimeJoinE(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1),
                       "Ref");
  }
}

class ParserRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRoundTripTest, ToStringParsesBackIdentically) {
  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    ExprPtr e = RandomExpr(&rng, 3);
    const std::string text = e->ToString();
    auto parsed = ParseExpr(text);
    ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
  }
  for (int i = 0; i < 30; ++i) {
    LsExprPtr e = RandomLs(&rng, 3);
    const std::string text = e->ToString();
    auto parsed = ParseLsExpr(text);
    ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTripTest,
                         ::testing::Values(1u, 11u, 123u, 9999u));

}  // namespace
}  // namespace hrdm::query
