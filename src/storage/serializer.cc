#include "storage/serializer.h"

namespace hrdm::storage {

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutSignedVarint(std::string* out, int64_t v) {
  // Zigzag encoding.
  PutVarint(out, (static_cast<uint64_t>(v) << 1) ^
                     static_cast<uint64_t>(v >> 63));
}

void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s);
}

Result<uint64_t> Reader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) {
      return Status::Corruption("truncated varint");
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift >= 63 && byte > 1) {
      return Status::Corruption("varint overflow");
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

Result<int64_t> Reader::GetSignedVarint() {
  HRDM_ASSIGN_OR_RETURN(uint64_t raw, GetVarint());
  return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

Result<std::string> Reader::GetString() {
  HRDM_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
  return GetBytes(len);
}

Result<std::string> Reader::GetBytes(uint64_t n) {
  if (n > remaining()) {
    return Status::Corruption("truncated string");
  }
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

void EncodeLifespan(std::string* out, const Lifespan& l) {
  PutVarint(out, l.IntervalCount());
  // Delta-encode interval boundaries for compactness.
  TimePoint prev = 0;
  for (const Interval& iv : l.intervals()) {
    PutSignedVarint(out, iv.begin - prev);
    PutSignedVarint(out, iv.end - iv.begin);
    prev = iv.end;
  }
}

Result<Lifespan> DecodeLifespan(Reader* r) {
  HRDM_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > r->remaining()) {
    return Status::Corruption("lifespan interval count exceeds buffer");
  }
  std::vector<Interval> ivs;
  ivs.reserve(n);
  TimePoint prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    HRDM_ASSIGN_OR_RETURN(int64_t db, r->GetSignedVarint());
    HRDM_ASSIGN_OR_RETURN(int64_t len, r->GetSignedVarint());
    if (len < 0) return Status::Corruption("negative interval length");
    // Fuzzed inputs can carry deltas that overflow the chronon domain;
    // checked arithmetic keeps decode UB-free.
    TimePoint begin;
    TimePoint end;
    if (__builtin_add_overflow(prev, db, &begin) ||
        __builtin_add_overflow(begin, len, &end)) {
      return Status::Corruption("interval boundary overflow");
    }
    ivs.push_back(Interval(begin, end));
    prev = end;
  }
  return Lifespan::FromIntervals(std::move(ivs));
}

void EncodeValue(std::string* out, const Value& v) {
  if (v.absent()) {
    out->push_back(0);
    return;
  }
  switch (v.type()) {
    case DomainType::kBool:
      out->push_back(1);
      out->push_back(v.AsBool() ? 1 : 0);
      break;
    case DomainType::kInt:
      out->push_back(2);
      PutSignedVarint(out, v.AsInt());
      break;
    case DomainType::kDouble: {
      out->push_back(3);
      double d = v.AsDouble();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      PutVarint(out, bits);
      break;
    }
    case DomainType::kString:
      out->push_back(4);
      PutString(out, v.AsString());
      break;
    case DomainType::kTime:
      out->push_back(5);
      PutSignedVarint(out, v.AsTime());
      break;
  }
}

Result<Value> DecodeValue(Reader* r) {
  HRDM_ASSIGN_OR_RETURN(uint64_t tag, r->GetVarint());
  switch (tag) {
    case 0:
      return Value();
    case 1: {
      HRDM_ASSIGN_OR_RETURN(uint64_t b, r->GetVarint());
      if (b > 1) return Status::Corruption("bad bool payload");
      return Value::Bool(b == 1);
    }
    case 2: {
      HRDM_ASSIGN_OR_RETURN(int64_t i, r->GetSignedVarint());
      return Value::Int(i);
    }
    case 3: {
      HRDM_ASSIGN_OR_RETURN(uint64_t bits, r->GetVarint());
      double d;
      __builtin_memcpy(&d, &bits, sizeof(d));
      return Value::Double(d);
    }
    case 4: {
      HRDM_ASSIGN_OR_RETURN(std::string s, r->GetString());
      return Value::String(std::move(s));
    }
    case 5: {
      HRDM_ASSIGN_OR_RETURN(int64_t t, r->GetSignedVarint());
      return Value::Time(t);
    }
    default:
      return Status::Corruption("unknown value tag");
  }
}

void EncodeTemporalValue(std::string* out, const TemporalValue& v) {
  PutVarint(out, v.segments().size());
  TimePoint prev = 0;
  for (const Segment& s : v.segments()) {
    PutSignedVarint(out, s.interval.begin - prev);
    PutSignedVarint(out, s.interval.end - s.interval.begin);
    prev = s.interval.end;
    EncodeValue(out, s.value);
  }
}

Result<TemporalValue> DecodeTemporalValue(Reader* r) {
  HRDM_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > r->remaining()) {
    return Status::Corruption("segment count exceeds buffer");
  }
  std::vector<Segment> segs;
  segs.reserve(n);
  TimePoint prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    HRDM_ASSIGN_OR_RETURN(int64_t db, r->GetSignedVarint());
    HRDM_ASSIGN_OR_RETURN(int64_t len, r->GetSignedVarint());
    if (len < 0) return Status::Corruption("negative segment length");
    TimePoint begin;
    TimePoint end;
    if (__builtin_add_overflow(prev, db, &begin) ||
        __builtin_add_overflow(begin, len, &end)) {
      return Status::Corruption("segment boundary overflow");
    }
    prev = end;
    HRDM_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    segs.push_back(Segment{Interval(begin, end), std::move(v)});
  }
  return TemporalValue::FromSegments(std::move(segs));
}

void EncodeScheme(std::string* out, const RelationScheme& s) {
  PutString(out, s.name());
  PutVarint(out, s.arity());
  for (const AttributeDef& a : s.attributes()) {
    PutString(out, a.name);
    PutVarint(out, static_cast<uint64_t>(a.type));
    PutVarint(out, static_cast<uint64_t>(a.interpolation));
    EncodeLifespan(out, a.lifespan);
  }
  PutVarint(out, s.key().size());
  for (const std::string& k : s.key()) PutString(out, k);
}

Result<SchemePtr> DecodeScheme(Reader* r) {
  HRDM_ASSIGN_OR_RETURN(std::string name, r->GetString());
  HRDM_ASSIGN_OR_RETURN(uint64_t arity, r->GetVarint());
  if (arity > r->remaining()) {
    return Status::Corruption("scheme arity exceeds buffer");
  }
  std::vector<AttributeDef> attrs;
  attrs.reserve(arity);
  for (uint64_t i = 0; i < arity; ++i) {
    AttributeDef a;
    HRDM_ASSIGN_OR_RETURN(a.name, r->GetString());
    HRDM_ASSIGN_OR_RETURN(uint64_t type, r->GetVarint());
    if (type > static_cast<uint64_t>(DomainType::kTime)) {
      return Status::Corruption("bad domain type tag");
    }
    a.type = static_cast<DomainType>(type);
    HRDM_ASSIGN_OR_RETURN(uint64_t interp, r->GetVarint());
    if (interp > static_cast<uint64_t>(InterpolationKind::kLinear)) {
      return Status::Corruption("bad interpolation tag");
    }
    a.interpolation = static_cast<InterpolationKind>(interp);
    HRDM_ASSIGN_OR_RETURN(a.lifespan, DecodeLifespan(r));
    attrs.push_back(std::move(a));
  }
  HRDM_ASSIGN_OR_RETURN(uint64_t key_n, r->GetVarint());
  if (key_n > arity) return Status::Corruption("key larger than scheme");
  std::vector<std::string> key;
  key.reserve(key_n);
  for (uint64_t i = 0; i < key_n; ++i) {
    HRDM_ASSIGN_OR_RETURN(std::string k, r->GetString());
    key.push_back(std::move(k));
  }
  return RelationScheme::Make(std::move(name), std::move(attrs),
                              std::move(key));
}

void EncodeTuple(std::string* out, const Tuple& t) {
  EncodeLifespan(out, t.lifespan());
  for (size_t i = 0; i < t.arity(); ++i) {
    EncodeTemporalValue(out, t.value(i));
  }
}

Result<Tuple> DecodeTuple(Reader* r, const SchemePtr& scheme) {
  HRDM_ASSIGN_OR_RETURN(Lifespan l, DecodeLifespan(r));
  std::vector<TemporalValue> values;
  values.reserve(scheme->arity());
  for (size_t i = 0; i < scheme->arity(); ++i) {
    HRDM_ASSIGN_OR_RETURN(TemporalValue v, DecodeTemporalValue(r));
    values.push_back(std::move(v));
  }
  return Tuple::FromParts(scheme, std::move(l), std::move(values));
}

void EncodeRelation(std::string* out, const Relation& rel) {
  EncodeScheme(out, *rel.scheme());
  PutVarint(out, rel.size());
  for (const Tuple& t : rel) {
    EncodeTuple(out, t);
  }
}

Result<Relation> DecodeRelation(Reader* r) {
  HRDM_ASSIGN_OR_RETURN(SchemePtr scheme, DecodeScheme(r));
  HRDM_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  Relation rel(scheme);
  for (uint64_t i = 0; i < n; ++i) {
    HRDM_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(r, scheme));
    HRDM_RETURN_IF_ERROR(rel.Insert(std::move(t)));
  }
  return rel;
}

}  // namespace hrdm::storage
