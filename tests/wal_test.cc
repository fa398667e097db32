// WAL file-format tests: frame round-trips, and the crash-semantics
// contract of storage/wal.h driven byte-by-byte — truncating a valid log
// at EVERY byte offset and flipping every bit position must recover
// exactly the complete, CRC-valid prefix of records: never a crash, never
// a phantom (a record that was not appended), never a partial record.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "storage/wal.h"
#include "storage_test_util.h"
#include "util/file.h"

namespace hrdm::storage {
namespace {

using hrdm::storage::testing::TempDir;

/// A varied record set: empty, tiny, binary (NUL and 0xFF bytes), and one
/// larger than a typical frame header read.
std::vector<std::string> SampleRecords() {
  std::string binary;
  for (int i = 0; i < 64; ++i) binary.push_back(static_cast<char>(i * 37));
  return {
      "alpha", std::string(), "b", binary, std::string(300, 'x'),
      std::string("trailing"),
  };
}

/// header + frames of `records`, exactly what WalWriter produces.
std::string EncodeWalBytes(const std::vector<std::string>& records) {
  std::string bytes(kWalHeader, kWalHeaderSize);
  for (const std::string& r : records) bytes += FrameWalRecord(r);
  return bytes;
}

/// Byte offset of the end of each frame (frame_end[k] = offset just past
/// record k).
std::vector<size_t> FrameEnds(const std::vector<std::string>& records) {
  std::vector<size_t> ends;
  size_t pos = kWalHeaderSize;
  for (const std::string& r : records) {
    pos += kWalFrameOverhead + r.size();
    ends.push_back(pos);
  }
  return ends;
}

Status WriteBytes(const std::string& path, std::string_view data) {
  return util::AtomicWriteFile(path, data, /*durable=*/false);
}

TEST(WalTest, WriterReaderRoundTrip) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/wal-0000000000.log";
  const std::vector<std::string> records = SampleRecords();
  {
    WalWriter::Options options;
    options.fsync = FsyncPolicy::kOff;
    auto writer = WalWriter::Open(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& r : records) {
      ASSERT_TRUE(writer->Append(r).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto contents = ReadWal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->clean);
  EXPECT_EQ(contents->records, records);
  EXPECT_EQ(contents->valid_bytes, EncodeWalBytes(records).size());
}

TEST(WalTest, MissingFileIsEmptyLog) {
  TempDir dir("wal");
  auto contents = ReadWal(dir.path() + "/nope.log");
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->records.empty());
  EXPECT_TRUE(contents->clean);
}

TEST(WalTest, BadMagicIsCorruption) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/wal-0000000000.log";
  ASSERT_TRUE(WriteBytes(path, "NOTAWAL!\x01\x02\x03").ok());
  auto contents = ReadWal(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kCorruption);
  // Same verdict for a short file that is not a header prefix.
  ASSERT_TRUE(WriteBytes(path, "XYZ").ok());
  EXPECT_EQ(ReadWal(path).status().code(), StatusCode::kCorruption);
}

// The headline torn-write property: for every truncation point L in
// [0, file size], reading the first L bytes yields exactly the records
// whose frames fit entirely within L — the longest durable prefix.
TEST(WalTest, TruncationAtEveryByteOffsetRecoversExactPrefix) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/wal-0000000000.log";
  const std::vector<std::string> records = SampleRecords();
  const std::string bytes = EncodeWalBytes(records);
  const std::vector<size_t> ends = FrameEnds(records);

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    ASSERT_TRUE(WriteBytes(path, std::string_view(bytes).substr(0, cut)).ok());
    auto contents = ReadWal(path);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();

    // Expected: every record whose frame end is within the cut.
    size_t expect_n = 0;
    while (expect_n < ends.size() && ends[expect_n] <= cut) ++expect_n;
    ASSERT_EQ(contents->records.size(), expect_n);
    for (size_t i = 0; i < expect_n; ++i) {
      EXPECT_EQ(contents->records[i], records[i]) << "record " << i;
    }
    // clean iff the cut is exactly a frame boundary (or the full header).
    const size_t expect_valid =
        cut < kWalHeaderSize ? 0
                             : (expect_n == 0 ? kWalHeaderSize
                                              : ends[expect_n - 1]);
    EXPECT_EQ(contents->valid_bytes, expect_valid);
    EXPECT_EQ(contents->clean, cut == expect_valid || cut == 0);
  }
}

// Single-bit flips: CRC-32C detects every 1-bit error, so a flip anywhere
// in frame k's bytes (length word, CRC word or payload) must cut the log
// at k — and leave records 0..k-1 untouched. Flips in the header are
// Corruption (wrong magic), not silent acceptance.
TEST(WalTest, BitFlipAtEveryPositionNeverYieldsPhantoms) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/wal-0000000000.log";
  const std::vector<std::string> records = SampleRecords();
  const std::string bytes = EncodeWalBytes(records);
  const std::vector<size_t> ends = FrameEnds(records);

  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    // One flip per byte keeps the quadratic loop affordable; the flipped
    // bit position still varies with the offset.
    const char mask = static_cast<char>(1u << (offset % 8));
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ mask);
    ASSERT_TRUE(WriteBytes(path, mutated).ok());
    SCOPED_TRACE("bit flip at offset " + std::to_string(offset));

    auto contents = ReadWal(path);
    if (offset < kWalHeaderSize) {
      ASSERT_FALSE(contents.ok());
      EXPECT_EQ(contents.status().code(), StatusCode::kCorruption);
      continue;
    }
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    // The frame containing the flipped byte.
    size_t k = 0;
    while (ends[k] <= offset) ++k;
    ASSERT_EQ(contents->records.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(contents->records[i], records[i]) << "record " << i;
    }
    EXPECT_FALSE(contents->clean);
  }
}

// Reopening a torn log truncates the tail so appends continue from the
// last durable record — the recovery path StorageEngine::Open relies on.
TEST(WalTest, ReopenAfterTornTailTruncatesAndResumes) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/wal-0000000000.log";
  const std::vector<std::string> records = SampleRecords();
  const std::string bytes = EncodeWalBytes(records);
  const std::vector<size_t> ends = FrameEnds(records);

  // Tear mid-way through record 3's payload.
  const size_t cut = ends[2] + kWalFrameOverhead + 1;
  ASSERT_TRUE(WriteBytes(path, std::string_view(bytes).substr(0, cut)).ok());

  WalWriter::Options options;
  options.fsync = FsyncPolicy::kOff;
  {
    auto writer = WalWriter::Open(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append("resumed").ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto contents = ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->clean);
  ASSERT_EQ(contents->records.size(), 4u);
  EXPECT_EQ(contents->records[0], records[0]);
  EXPECT_EQ(contents->records[1], records[1]);
  EXPECT_EQ(contents->records[2], records[2]);
  EXPECT_EQ(contents->records[3], "resumed");
}

// A header torn to fewer than 8 bytes is rewritten from scratch on reopen.
TEST(WalTest, ReopenAfterTornHeaderStartsFresh) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/wal-0000000000.log";
  ASSERT_TRUE(WriteBytes(path, std::string_view(kWalHeader, 3)).ok());
  WalWriter::Options options;
  options.fsync = FsyncPolicy::kOff;
  {
    auto writer = WalWriter::Open(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append("first").ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto contents = ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->clean);
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], "first");
}

TEST(WalTest, BatchedPolicySyncsOnBudgetAndOnDemand) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/wal-0000000000.log";
  WalWriter::Options options;
  options.fsync = FsyncPolicy::kBatched;
  options.batch_bytes = 64;  // tiny budget: forces periodic syncs
  auto writer = WalWriter::Open(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer->Append("record-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer->Sync().ok());
  auto contents = ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records.size(), 50u);
  EXPECT_TRUE(contents->clean);
}

TEST(WalTest, ParseFsyncPolicyRoundTrips) {
  for (FsyncPolicy p :
       {FsyncPolicy::kOff, FsyncPolicy::kBatched, FsyncPolicy::kAlways}) {
    auto parsed = testing::ParseFsyncPolicy(FsyncPolicyName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  auto bad = testing::ParseFsyncPolicy("sometimes");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hrdm::storage
