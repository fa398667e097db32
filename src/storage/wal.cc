#include "storage/wal.h"

#include <cstring>

#include "util/crc32.h"

namespace hrdm::storage {

namespace {

void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(buf, 4);
}

uint32_t GetFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

}  // namespace

std::string_view FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kOff:
      return "off";
    case FsyncPolicy::kBatched:
      return "batched";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

std::string FrameWalRecord(std::string_view record) {
  std::string frame;
  frame.reserve(kWalFrameOverhead + record.size());
  PutFixed32(&frame, static_cast<uint32_t>(record.size()));
  PutFixed32(&frame, util::Crc32c(record));
  frame.append(record);
  return frame;
}

Result<WalContents> ReadWal(const std::string& path) {
  WalContents out;
  if (!util::FileExists(path)) {
    // A log that was never created is an empty log.
    return out;
  }
  // Read through the Result rather than moving the string out of it: the
  // move trips gcc 12's -Wmaybe-uninitialized on the empty-file branch.
  const Result<std::string> read = util::ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& data = *read;
  if (data.size() < kWalHeaderSize) {
    // Torn header: the file was created but the 8 header bytes never all
    // reached disk. Treat as empty iff what is there is a header prefix —
    // anything else is not (a prefix of) a WAL file.
    if (std::memcmp(data.data(), kWalHeader, data.size()) != 0) {
      return Status::Corruption(path + " is not an HRDM WAL file");
    }
    out.clean = data.empty();  // a torn header is still a torn tail
    out.valid_bytes = 0;
    return out;
  }
  if (std::memcmp(data.data(), kWalHeader, kWalHeaderSize) != 0) {
    return Status::Corruption(path + " is not an HRDM WAL file (bad magic)");
  }
  size_t pos = kWalHeaderSize;
  out.valid_bytes = pos;
  while (pos < data.size()) {
    if (data.size() - pos < kWalFrameOverhead) break;  // torn frame header
    const uint32_t len = GetFixed32(data.data() + pos);
    const uint32_t crc = GetFixed32(data.data() + pos + 4);
    if (data.size() - pos - kWalFrameOverhead < len) break;  // torn payload
    const std::string_view payload(data.data() + pos + kWalFrameOverhead, len);
    if (util::Crc32c(payload) != crc) break;  // torn or corrupt payload
    out.records.emplace_back(payload);
    pos += kWalFrameOverhead + len;
    out.valid_bytes = pos;
  }
  out.clean = (out.valid_bytes == data.size());
  return out;
}

Result<WalWriter> WalWriter::Open(const std::string& path, Options options) {
  uint64_t valid_bytes = 0;
  bool fresh = true;
  if (util::FileExists(path)) {
    HRDM_ASSIGN_OR_RETURN(WalContents contents, ReadWal(path));
    valid_bytes = contents.valid_bytes;
    // valid_bytes == 0 means even the header was torn: rewrite it.
    fresh = (valid_bytes == 0);
  }
  HRDM_ASSIGN_OR_RETURN(util::AppendFile file, util::AppendFile::Open(path));
  HRDM_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  if (!fresh && size > valid_bytes) {
    HRDM_RETURN_IF_ERROR(file.TruncateTo(valid_bytes));
  }
  if (fresh) {
    if (size > 0) HRDM_RETURN_IF_ERROR(file.TruncateTo(0));
    HRDM_RETURN_IF_ERROR(
        file.Append(std::string_view(kWalHeader, kWalHeaderSize)));
    if (options.fsync != FsyncPolicy::kOff) {
      HRDM_RETURN_IF_ERROR(file.Sync());
    }
  }
  return WalWriter(std::move(file), options);
}

Status WalWriter::Append(std::string_view record) {
  const std::string frame = FrameWalRecord(record);
  HRDM_RETURN_IF_ERROR(file_.Append(frame));
  switch (options_.fsync) {
    case FsyncPolicy::kOff:
      break;
    case FsyncPolicy::kBatched:
      unsynced_bytes_ += frame.size();
      if (unsynced_bytes_ >= options_.batch_bytes) {
        HRDM_RETURN_IF_ERROR(file_.Sync());
        unsynced_bytes_ = 0;
      }
      break;
    case FsyncPolicy::kAlways:
      HRDM_RETURN_IF_ERROR(file_.Sync());
      break;
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  HRDM_RETURN_IF_ERROR(file_.Sync());
  unsynced_bytes_ = 0;
  return Status::OK();
}

}  // namespace hrdm::storage
