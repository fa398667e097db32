#ifndef HRDM_STORAGE_WAL_H_
#define HRDM_STORAGE_WAL_H_

/// \file wal.h
/// \brief The write-ahead log file format: CRC-framed records on disk.
///
/// Layout of a WAL file:
///
///     +--------------------------+
///     | header: "HRDMWAL" 0x01   |   8 bytes, magic + format version
///     +--------------------------+
///     | frame 0                  |
///     | frame 1                  |
///     | ...                      |
///     +--------------------------+
///
/// and each frame is
///
///     +-----------+-----------+------------------+
///     | len (u32) | crc (u32) | payload (len B)  |
///     +-----------+-----------+------------------+
///
/// with both fixed-width words little-endian and `crc` the CRC-32C of the
/// payload bytes (util/crc32.h). Payloads are the logical change-log
/// records of storage/changelog.h, but this layer is content-agnostic.
///
/// Crash semantics: a crash can leave a *torn tail* — a final frame whose
/// bytes are incomplete, or whose payload never fully hit disk. `ReadWal`
/// therefore accepts any prefix of a valid file: it stops at the first
/// frame that is incomplete or fails its CRC and returns every record
/// before it (the longest durable prefix), flagging the stop via `clean`.
/// It never returns a partially-read or CRC-invalid record (no phantoms)
/// and never errors on torn tails; only a non-WAL header is Corruption.
/// `WalWriter::Open` on an existing file truncates the torn tail before
/// resuming appends, so the file on disk is always a valid prefix plus the
/// new records.
///
/// Durability is policy-driven (`FsyncPolicy`): every append (`kAlways`),
/// once the batch budget fills or `Sync` is called (`kBatched`), or left
/// to the OS page cache (`kOff`, for tests/bulk loads).
///
/// Layer contract: bytes and fsyncs only — no knowledge of Database. The
/// recovery sequence (snapshot + WAL tail) lives in
/// storage/storage_engine.h.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/file.h"
#include "util/status.h"

namespace hrdm::storage {

/// \brief When the WAL fsyncs.
enum class FsyncPolicy : uint8_t {
  /// Never fsync from the engine; the OS decides (fastest, weakest).
  kOff = 0,
  /// fsync when `batch_bytes` of unsynced frames accumulate (and on
  /// explicit `Sync`/checkpoint). Bounded data loss, amortized cost.
  kBatched = 1,
  /// fsync after every appended record (classic commit durability).
  kAlways = 2,
};

std::string_view FsyncPolicyName(FsyncPolicy policy);

/// \brief The 8-byte WAL file header: magic + format version.
inline constexpr char kWalHeader[8] = {'H', 'R', 'D', 'M',
                                       'W', 'A', 'L', '\x01'};
inline constexpr size_t kWalHeaderSize = sizeof(kWalHeader);
/// \brief Bytes of frame overhead per record (length word + CRC word).
inline constexpr size_t kWalFrameOverhead = 8;

/// \brief Frames one record: [len u32][crc u32][payload]. Exposed so the
/// torn-write tests can compute exact frame boundaries.
std::string FrameWalRecord(std::string_view record);

/// \brief What `ReadWal` recovered from a WAL file.
struct WalContents {
  /// The payloads of every complete, CRC-valid frame, in file order.
  std::vector<std::string> records;
  /// False when reading stopped at a torn/invalid frame before the end of
  /// the file (the bytes from `valid_bytes` on are a torn tail).
  bool clean = true;
  /// File offset just past the last valid frame (>= kWalHeaderSize); the
  /// length a writer should truncate to before appending.
  uint64_t valid_bytes = kWalHeaderSize;
};

/// \brief Reads a WAL file, tolerating a torn tail (see file comment). A
/// missing or shorter-than-header file yields zero records (a crash can
/// tear even the header of a just-created log); a full-length header that
/// is not the WAL magic is Corruption.
Result<WalContents> ReadWal(const std::string& path);

/// \brief An open WAL file accepting appends.
class WalWriter {
 public:
  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kAlways;
    /// kBatched: fsync once this many unsynced payload+frame bytes pile up.
    size_t batch_bytes = 1 << 16;
  };

  /// \brief Opens `path` for appending, creating it (with header) if
  /// missing and truncating any torn tail of an existing file.
  static Result<WalWriter> Open(const std::string& path, Options options);

  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;

  /// \brief Frames and appends one record, fsyncing per policy. On return
  /// with kAlways the record is durable.
  Status Append(std::string_view record);

  /// \brief Flushes to disk regardless of policy (kOff included): the
  /// checkpoint barrier.
  Status Sync();

  const std::string& path() const { return file_.path(); }

 private:
  WalWriter(util::AppendFile file, Options options)
      : file_(std::move(file)), options_(options) {}

  util::AppendFile file_;
  Options options_;
  size_t unsynced_bytes_ = 0;
};

}  // namespace hrdm::storage

#endif  // HRDM_STORAGE_WAL_H_
