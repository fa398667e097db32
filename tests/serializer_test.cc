// Tests for the binary serializer (the physical level of Figure 9):
// round-trips for every model object and robustness against corruption,
// plus the util/file.h whole-file helpers the snapshot and WAL files use.

#include "storage/serializer.h"

#include <gtest/gtest.h>

#include "storage_test_util.h"
#include "util/file.h"
#include "util/random.h"
#include "workload/generators.h"

namespace hrdm::storage {
namespace {

using hrdm::storage::testing::TempDir;

TEST(VarintTest, RoundTripsEdgeValues) {
  const uint64_t cases[] = {0,   1,          127,       128,
                            300, 1ull << 32, UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint(&buf, v);
    Reader r(buf);
    auto back = r.GetVarint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintTest, SignedZigzag) {
  const int64_t signed_cases[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : signed_cases) {
    std::string buf;
    PutSignedVarint(&buf, v);
    Reader r(buf);
    auto back = r.GetSignedVarint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(VarintTest, TruncatedIsCorruption) {
  std::string buf;
  PutVarint(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Reader r(buf);
  auto back = r.GetVarint();
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(StringTest, RoundTripAndTruncation) {
  std::string buf;
  PutString(&buf, "hello \0 world");
  Reader r(buf);
  auto back = r.GetString();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, std::string("hello \0 world"));

  buf.resize(buf.size() - 2);
  Reader r2(buf);
  EXPECT_FALSE(r2.GetString().ok());
}

TEST(LifespanCodecTest, RoundTrip) {
  for (const Lifespan& l :
       {Lifespan::Empty(), Span(0, 10), Lifespan::Point(-5),
        Lifespan::FromIntervals({Interval(-10, -2), Interval(5, 9),
                                 Interval(100, 200)})}) {
    std::string buf;
    EncodeLifespan(&buf, l);
    Reader r(buf);
    auto back = DecodeLifespan(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, l);
  }
}

TEST(ValueCodecTest, RoundTripAllTypes) {
  for (const Value& v :
       {Value(), Value::Bool(true), Value::Bool(false), Value::Int(-123456),
        Value::Double(3.14159), Value::String(""), Value::String("codd"),
        Value::Time(-7)}) {
    std::string buf;
    EncodeValue(&buf, v);
    Reader r(buf);
    auto back = DecodeValue(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(TemporalValueCodecTest, RoundTrip) {
  auto tv = *TemporalValue::FromSegments(
      {{Interval(0, 4), Value::String("a")},
       {Interval(8, 8), Value::String("b")},
       {Interval(20, 30), Value::String("a")}});
  std::string buf;
  EncodeTemporalValue(&buf, tv);
  Reader r(buf);
  auto back = DecodeTemporalValue(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, tv);
}

TEST(SchemeCodecTest, RoundTrip) {
  auto scheme = *RelationScheme::Make(
      "stocks",
      {{"Ticker", DomainType::kString, Span(0, 99),
        InterpolationKind::kDiscrete},
       {"Price", DomainType::kDouble, Span(0, 99),
        InterpolationKind::kLinear},
       {"Volume", DomainType::kInt,
        Lifespan::FromIntervals({Interval(0, 49), Interval(70, 99)}),
        InterpolationKind::kStepwise}},
      {"Ticker"});
  std::string buf;
  EncodeScheme(&buf, *scheme);
  Reader r(buf);
  auto back = DecodeScheme(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE((*back)->SameStructure(*scheme));
  EXPECT_EQ((*back)->name(), "stocks");
}

TEST(RelationCodecTest, RoundTripWorkloads) {
  Rng rng(5);
  auto emp = *workload::MakePersonnel(&rng, workload::PersonnelConfig{
                                                .num_employees = 30});
  std::string buf;
  EncodeRelation(&buf, emp);
  Reader r(buf);
  auto back = DecodeRelation(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->EqualsAsSet(emp));
  EXPECT_TRUE(r.AtEnd());
}

TEST(RelationCodecTest, TruncationNeverCrashes) {
  // Fuzz-lite: decoding any prefix of a valid encoding must return an
  // error (or a shorter valid object), never crash or hang.
  Rng rng(6);
  auto emp = *workload::MakePersonnel(
      &rng, workload::PersonnelConfig{.num_employees = 8});
  std::string buf;
  EncodeRelation(&buf, emp);
  for (size_t cut = 0; cut < buf.size(); cut += 7) {
    Reader r(std::string_view(buf).substr(0, cut));
    auto result = DecodeRelation(&r);
    // Either an explicit error, or (rarely) a structurally valid shorter
    // object. Both are acceptable; crashing is not.
    (void)result;
  }
}

TEST(RelationCodecTest, BitFlipsNeverCrash) {
  Rng rng(8);
  auto emp = *workload::MakePersonnel(
      &rng, workload::PersonnelConfig{.num_employees = 5});
  std::string buf;
  EncodeRelation(&buf, emp);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = buf;
    const size_t pos = rng.Index(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(0, 255));
    Reader r(mutated);
    auto result = DecodeRelation(&r);
    (void)result;  // must not crash; error is fine
  }
}

TEST(FileIoTest, WriteAndReadBack) {
  TempDir dir("file_io");
  const std::string path = dir.path() + "/payload.bin";
  const std::string payload("binary\0data\xff", 12);
  for (const bool durable : {false, true}) {
    ASSERT_TRUE(util::AtomicWriteFile(path, payload, durable).ok());
    auto back = util::ReadFileToString(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, payload);
  }
  ASSERT_TRUE(util::RemoveFileIfExists(path).ok());
  EXPECT_FALSE(util::ReadFileToString(path).ok());
}

}  // namespace
}  // namespace hrdm::storage
