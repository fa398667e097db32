#ifndef HRDM_STORAGE_SERIALIZER_H_
#define HRDM_STORAGE_SERIALIZER_H_

/// \file serializer.h
/// \brief Binary (de)serialization of HRDM objects — the physical level of
/// Figure 9.
///
/// Format: little-endian varints (LEB128) with zigzag for signed numbers,
/// length-prefixed strings, and type tags where payloads are polymorphic.
/// Every `Decode*` validates its input and returns Corruption on truncated
/// or malformed bytes, so snapshot files cannot crash the process.
///
/// The format is versioned by a leading magic + version word in
/// `EncodeDatabaseHeader`; readers reject unknown versions.
///
/// Layer contract: the bottom of the storage engine — pure functions from
/// core objects to bytes and back, no engine state. Snapshots carry the
/// *representation level* of Figure 9 (stored segments, not interpolated
/// model values) and only primary data: access-path indexes are derived
/// and rebuilt after a load.

#include <cstdint>
#include <string>
#include <string_view>

#include "core/lifespan.h"
#include "core/relation.h"
#include "core/schema.h"
#include "core/temporal_value.h"
#include "core/tuple.h"
#include "core/value.h"
#include "util/status.h"

namespace hrdm::storage {

/// \brief Magic bytes identifying an HRDM snapshot ("HRDM").
inline constexpr uint32_t kSnapshotMagic = 0x4d445248u;
/// \brief Current snapshot format version.
inline constexpr uint32_t kSnapshotVersion = 1;

// --- primitive encoders ----------------------------------------------------

void PutVarint(std::string* out, uint64_t v);
void PutSignedVarint(std::string* out, int64_t v);
void PutString(std::string* out, std::string_view s);

/// \brief Sequential reader over an encoded buffer.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Result<uint64_t> GetVarint();
  Result<int64_t> GetSignedVarint();
  Result<std::string> GetString();
  /// \brief Reads exactly `n` raw bytes (no length prefix).
  Result<std::string> GetBytes(uint64_t n);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- model objects ----------------------------------------------------------

void EncodeLifespan(std::string* out, const Lifespan& l);
Result<Lifespan> DecodeLifespan(Reader* r);

void EncodeValue(std::string* out, const Value& v);
Result<Value> DecodeValue(Reader* r);

void EncodeTemporalValue(std::string* out, const TemporalValue& v);
Result<TemporalValue> DecodeTemporalValue(Reader* r);

void EncodeScheme(std::string* out, const RelationScheme& s);
Result<SchemePtr> DecodeScheme(Reader* r);

/// Tuples are encoded without their scheme; decoding takes it as context.
void EncodeTuple(std::string* out, const Tuple& t);
Result<Tuple> DecodeTuple(Reader* r, const SchemePtr& scheme);

void EncodeRelation(std::string* out, const Relation& rel);
Result<Relation> DecodeRelation(Reader* r);

}  // namespace hrdm::storage

#endif  // HRDM_STORAGE_SERIALIZER_H_
