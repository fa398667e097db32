// Tests for the bench harness (bench/bench_util.h): JSON escaping and
// layout, the percentile and repetition helpers, and the host record every
// BENCH_*.json carries.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/file.h"
#include "util/random.h"

namespace hrdm::bench {
namespace {

/// Decodes the JSON string literal whose opening quote is at `text[*pos]`
/// and leaves `*pos` just past its closing quote. Handles the escapes
/// Json::Quote emits.
std::string ParseJsonString(const std::string& text, size_t* pos) {
  EXPECT_EQ(text[*pos], '"');
  std::string out;
  for (size_t i = *pos + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      *pos = i + 1;
      return out;
    }
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control char";
    if (c != '\\') {
      out += c;
      continue;
    }
    const char e = text[++i];
    switch (e) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u':
        out += static_cast<char>(std::stoi(text.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      default: out += e;  // '"' and '\\'
    }
  }
  ADD_FAILURE() << "unterminated string in " << text;
  return out;
}

TEST(BenchUtilTest, HrqlWithQuotesRoundTripsThroughJson) {
  const std::string hrql = "select_when(emp, Dept = \"dept0\")";
  for (const std::string& s :
       {hrql, std::string("back\\slash, tab\t, newline\n, bell\x07")}) {
    const std::string dump = Json::Object({{"hrql", s}}).Dump();
    size_t pos = dump.find(": ") + 2;
    EXPECT_EQ(ParseJsonString(dump, &pos), s);
    EXPECT_EQ(dump.substr(pos), "}") << dump;
  }
  EXPECT_EQ(Json::Object({{"hrql", hrql}}).Dump(),
            R"json({"hrql": "select_when(emp, Dept = \"dept0\")"})json");
}

TEST(BenchUtilTest, DumpKeepsScalarRowsOnOneLine) {
  const Json j = Json::Object(
      {{"name", "w"},
       {"rows", Json::Array({Json::Object({{"n", 3}, {"x", 1.5}}), 7})}});
  EXPECT_EQ(j.Dump(),
            "{\n"
            "  \"name\": \"w\",\n"
            "  \"rows\": [\n"
            "    {\"n\": 3, \"x\": 1.500},\n"
            "    7\n"
            "  ]\n"
            "}");
}

TEST(BenchUtilTest, PercentileOfNoSamplesIsZero) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({}, 1.0), 0);
}

TEST(BenchUtilTest, PercentileOfOneSampleIsThatSample) {
  for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(Percentile({42}, q), 42);
}

TEST(BenchUtilTest, PercentileOfNSamplesIsLowerNearestRank) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1..100
  Rng rng(3);
  for (size_t i = samples.size() - 1; i > 0; --i) {
    std::swap(samples[i], samples[static_cast<size_t>(
                              rng.Uniform(0, static_cast<int64_t>(i)))]);
  }
  EXPECT_EQ(Percentile(samples, 0.0), 1);
  EXPECT_EQ(Percentile(samples, 0.5), 50);   // index ⌊0.5·99⌋ = 49
  EXPECT_EQ(Percentile(samples, 0.99), 99);  // index ⌊0.99·99⌋ = 98
  EXPECT_EQ(Percentile(samples, 1.0), 100);

  const Timing t = Summarize(samples, 2.0);
  EXPECT_EQ(t.reps, 100u);
  EXPECT_EQ(t.ops_per_sec, 50);
  EXPECT_EQ(t.p50_us, 50);
  EXPECT_EQ(t.p99_us, 99);
  EXPECT_EQ(t.max_us, 100);
}

TEST(BenchUtilTest, TimeRepsWarmsUpThenTimesEachRep) {
  int calls = 0;
  const Timing t = TimeReps(5, [&] {
    ++calls;
    return size_t{9};
  });
  EXPECT_EQ(calls, 6);
  EXPECT_EQ(t.reps, 5u);
  EXPECT_EQ(t.result, 9u);
  EXPECT_GT(t.ops_per_sec, 0);
  EXPECT_LE(t.p50_us, t.p99_us);
  EXPECT_LE(t.p99_us, t.max_us);
}

TEST(BenchUtilTest, EveryBenchFileCarriesTheHostRecord) {
  ASSERT_STRNE(HRDM_BUILD_TYPE, "");
  const std::string dir = MakeScratchDir();
  char cwd[4096];
  ASSERT_NE(::getcwd(cwd, sizeof(cwd)), nullptr);
  ASSERT_EQ(::chdir(dir.c_str()), 0);
  WriteBenchJson("unit", {{"rows", Json::Array({})}});
  auto text = util::ReadFileToString("BENCH_unit.json");
  ASSERT_EQ(::chdir(cwd), 0);
  RemoveScratchDir(dir);

  ASSERT_TRUE(text.ok());
  const std::string host =
      "  \"host\": {\"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": \"" HRDM_BUILD_TYPE "\", \"hrdm_threads\": ";
  EXPECT_EQ(text->rfind("{\n  \"benchmark\": \"unit\",\n" + host, 0), 0u)
      << *text;
}

}  // namespace
}  // namespace hrdm::bench
