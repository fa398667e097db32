// Tests for Value, DomainType and θ-comparison semantics.

#include "core/value.h"

#include <gtest/gtest.h>

namespace hrdm {
namespace {

/// Parses the stable DomainTypeName spellings; error on unknown names.
Result<DomainType> DomainTypeFromName(std::string_view name) {
  if (name == "bool") return DomainType::kBool;
  if (name == "int") return DomainType::kInt;
  if (name == "double") return DomainType::kDouble;
  if (name == "string") return DomainType::kString;
  if (name == "time") return DomainType::kTime;
  return Status::InvalidArgument("unknown domain type: " + std::string(name));
}

TEST(ValueTest, AbsentByDefault) {
  Value v;
  EXPECT_TRUE(v.absent());
  EXPECT_EQ(v, Value());
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Bool(true).type(), DomainType::kBool);
  EXPECT_EQ(Value::Int(7).type(), DomainType::kInt);
  EXPECT_EQ(Value::Double(2.5).type(), DomainType::kDouble);
  EXPECT_EQ(Value::String("x").type(), DomainType::kString);
  EXPECT_EQ(Value::Time(9).type(), DomainType::kTime);

  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Time(9).AsTime(), 9);
}

TEST(ValueTest, IntAndTimeAreDistinctDomains) {
  // The TT/TD distinction of Section 3: a time atom is not an int.
  EXPECT_NE(Value::Int(5), Value::Time(5));
  auto cmp = Compare(Value::Int(5), CompareOp::kEq, Value::Time(5));
  EXPECT_FALSE(cmp.ok());
  EXPECT_EQ(cmp.status().code(), StatusCode::kTypeError);
}

TEST(ValueTest, EqualityIsExact) {
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_NE(Value::Int(5), Value::Int(6));
  EXPECT_NE(Value::Int(5), Value::Double(5.0));  // distinct types
  EXPECT_EQ(Value::String("ab"), Value::String("ab"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::String("codd").Hash(), Value::String("codd").Hash());
  EXPECT_NE(Value::Int(42).Hash(), Value::Int(43).Hash());
  EXPECT_NE(Value::Int(5).Hash(), Value::Time(5).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::Time(17).ToString(), "@17");
  EXPECT_EQ(Value().ToString(), "<absent>");
}

TEST(CompareTest, IntOrdering) {
  EXPECT_TRUE(*Compare(Value::Int(3), CompareOp::kLt, Value::Int(4)));
  EXPECT_TRUE(*Compare(Value::Int(4), CompareOp::kLe, Value::Int(4)));
  EXPECT_TRUE(*Compare(Value::Int(5), CompareOp::kGt, Value::Int(4)));
  EXPECT_TRUE(*Compare(Value::Int(5), CompareOp::kGe, Value::Int(5)));
  EXPECT_TRUE(*Compare(Value::Int(5), CompareOp::kNe, Value::Int(6)));
  EXPECT_FALSE(*Compare(Value::Int(5), CompareOp::kEq, Value::Int(6)));
}

TEST(CompareTest, MixedNumericComparesNumerically) {
  EXPECT_TRUE(*Compare(Value::Int(3), CompareOp::kLt, Value::Double(3.5)));
  EXPECT_TRUE(*Compare(Value::Double(3.0), CompareOp::kEq, Value::Int(3)));
}

TEST(CompareTest, StringsLexicographic) {
  EXPECT_TRUE(*Compare(Value::String("abc"), CompareOp::kLt,
                       Value::String("abd")));
  EXPECT_TRUE(*Compare(Value::String("b"), CompareOp::kGt,
                       Value::String("a")));
}

TEST(CompareTest, TimesChronological) {
  EXPECT_TRUE(*Compare(Value::Time(3), CompareOp::kLt, Value::Time(9)));
}

TEST(CompareTest, BoolOnlyEquality) {
  EXPECT_TRUE(*Compare(Value::Bool(true), CompareOp::kEq, Value::Bool(true)));
  EXPECT_TRUE(*Compare(Value::Bool(true), CompareOp::kNe,
                       Value::Bool(false)));
  auto bad = Compare(Value::Bool(true), CompareOp::kLt, Value::Bool(false));
  EXPECT_FALSE(bad.ok());
}

TEST(CompareTest, AbsentValuesError) {
  auto bad = Compare(Value(), CompareOp::kEq, Value::Int(1));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
}

TEST(CompareTest, CrossTypeNonNumericError) {
  auto bad = Compare(Value::String("5"), CompareOp::kEq, Value::Int(5));
  EXPECT_FALSE(bad.ok());
}

TEST(DomainTypeTest, NamesRoundTrip) {
  for (DomainType t : {DomainType::kBool, DomainType::kInt,
                       DomainType::kDouble, DomainType::kString,
                       DomainType::kTime}) {
    auto back = DomainTypeFromName(DomainTypeName(t));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(DomainTypeFromName("blob").ok());
}

}  // namespace
}  // namespace hrdm
