#include "storage/changelog.h"

#include "storage/serializer.h"

namespace hrdm::storage {

namespace {

void PutKey(std::string* out, const std::vector<Value>& key) {
  PutVarint(out, key.size());
  for (const Value& v : key) EncodeValue(out, v);
}

Result<std::vector<Value>> GetKey(Reader* r) {
  HRDM_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > r->remaining()) return Status::Corruption("key too large");
  std::vector<Value> key;
  key.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    HRDM_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    key.push_back(std::move(v));
  }
  return key;
}

void PutAttributeDef(std::string* out, const AttributeDef& def) {
  PutString(out, def.name);
  PutVarint(out, static_cast<uint64_t>(def.type));
  PutVarint(out, static_cast<uint64_t>(def.interpolation));
  EncodeLifespan(out, def.lifespan);
}

Result<AttributeDef> GetAttributeDef(Reader* r) {
  AttributeDef def;
  HRDM_ASSIGN_OR_RETURN(def.name, r->GetString());
  HRDM_ASSIGN_OR_RETURN(uint64_t type, r->GetVarint());
  if (type > static_cast<uint64_t>(DomainType::kTime)) {
    return Status::Corruption("bad domain type tag");
  }
  def.type = static_cast<DomainType>(type);
  HRDM_ASSIGN_OR_RETURN(uint64_t interp, r->GetVarint());
  if (interp > static_cast<uint64_t>(InterpolationKind::kLinear)) {
    return Status::Corruption("bad interpolation tag");
  }
  def.interpolation = static_cast<InterpolationKind>(interp);
  HRDM_ASSIGN_OR_RETURN(def.lifespan, DecodeLifespan(r));
  return def;
}

std::string RecordWithKind(OpKind kind) {
  std::string rec;
  rec.push_back(static_cast<char>(kind));
  return rec;
}

}  // namespace

// --- single-record encoders --------------------------------------------------

std::string EncodeCreateRelationRecord(const RelationScheme& scheme) {
  std::string rec = RecordWithKind(OpKind::kCreateRelation);
  EncodeScheme(&rec, scheme);
  return rec;
}

std::string EncodeDropRelationRecord(std::string_view name) {
  std::string rec = RecordWithKind(OpKind::kDropRelation);
  PutString(&rec, name);
  return rec;
}

std::string EncodeInsertRecord(std::string_view relation, const Tuple& t) {
  std::string rec = RecordWithKind(OpKind::kInsert);
  PutString(&rec, relation);
  EncodeTuple(&rec, t);
  return rec;
}

std::string EncodeAssignRecord(std::string_view relation,
                               const std::vector<Value>& key,
                               std::string_view attr, const Lifespan& span,
                               const Value& value) {
  std::string rec = RecordWithKind(OpKind::kAssign);
  PutString(&rec, relation);
  PutKey(&rec, key);
  PutString(&rec, attr);
  EncodeLifespan(&rec, span);
  EncodeValue(&rec, value);
  return rec;
}

std::string EncodeEndLifespanRecord(std::string_view relation,
                                    const std::vector<Value>& key,
                                    TimePoint at) {
  std::string rec = RecordWithKind(OpKind::kEndLifespan);
  PutString(&rec, relation);
  PutKey(&rec, key);
  PutSignedVarint(&rec, at);
  return rec;
}

std::string EncodeReincarnateRecord(std::string_view relation,
                                    const std::vector<Value>& key,
                                    const Lifespan& span) {
  std::string rec = RecordWithKind(OpKind::kReincarnate);
  PutString(&rec, relation);
  PutKey(&rec, key);
  EncodeLifespan(&rec, span);
  return rec;
}

std::string EncodeAddAttributeRecord(std::string_view relation,
                                     const AttributeDef& def) {
  std::string rec = RecordWithKind(OpKind::kAddAttribute);
  PutString(&rec, relation);
  PutAttributeDef(&rec, def);
  return rec;
}

std::string EncodeCloseAttributeRecord(std::string_view relation,
                                       std::string_view attr, TimePoint at) {
  std::string rec = RecordWithKind(OpKind::kCloseAttribute);
  PutString(&rec, relation);
  PutString(&rec, attr);
  PutSignedVarint(&rec, at);
  return rec;
}

std::string EncodeReopenAttributeRecord(std::string_view relation,
                                        std::string_view attr,
                                        const Lifespan& span) {
  std::string rec = RecordWithKind(OpKind::kReopenAttribute);
  PutString(&rec, relation);
  PutString(&rec, attr);
  EncodeLifespan(&rec, span);
  return rec;
}

std::string EncodeRegisterForeignKeyRecord(const ForeignKey& fk) {
  std::string rec = RecordWithKind(OpKind::kRegisterForeignKey);
  PutString(&rec, fk.child);
  PutVarint(&rec, fk.attrs.size());
  for (const std::string& a : fk.attrs) PutString(&rec, a);
  PutString(&rec, fk.parent);
  return rec;
}

std::string EncodeCreateLifespanIndexRecord(std::string_view relation) {
  std::string rec = RecordWithKind(OpKind::kCreateLifespanIndex);
  PutString(&rec, relation);
  return rec;
}

std::string EncodeCreateValueIndexRecord(std::string_view relation,
                                         std::string_view attr) {
  std::string rec = RecordWithKind(OpKind::kCreateValueIndex);
  PutString(&rec, relation);
  PutString(&rec, attr);
  return rec;
}

Status ApplyLogRecord(std::string_view record, Database* db) {
  if (record.empty()) return Status::Corruption("empty log record");
  const OpKind kind = static_cast<OpKind>(record[0]);
  Reader r(record.substr(1));
  switch (kind) {
    case OpKind::kCreateRelation: {
      HRDM_ASSIGN_OR_RETURN(SchemePtr scheme, DecodeScheme(&r));
      return db->CreateRelation(std::move(scheme));
    }
    case OpKind::kDropRelation: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      return db->DropRelation(name);
    }
    case OpKind::kInsert: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      HRDM_ASSIGN_OR_RETURN(const Relation* rel, db->Get(name));
      HRDM_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(&r, rel->scheme()));
      return db->Insert(name, std::move(t));
    }
    case OpKind::kAssign: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      HRDM_ASSIGN_OR_RETURN(std::vector<Value> key, GetKey(&r));
      HRDM_ASSIGN_OR_RETURN(std::string attr, r.GetString());
      HRDM_ASSIGN_OR_RETURN(Lifespan span, DecodeLifespan(&r));
      HRDM_ASSIGN_OR_RETURN(Value v, DecodeValue(&r));
      return db->Assign(name, key, attr, span, v);
    }
    case OpKind::kEndLifespan: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      HRDM_ASSIGN_OR_RETURN(std::vector<Value> key, GetKey(&r));
      HRDM_ASSIGN_OR_RETURN(int64_t at, r.GetSignedVarint());
      return db->EndLifespan(name, key, at);
    }
    case OpKind::kReincarnate: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      HRDM_ASSIGN_OR_RETURN(std::vector<Value> key, GetKey(&r));
      HRDM_ASSIGN_OR_RETURN(Lifespan span, DecodeLifespan(&r));
      return db->Reincarnate(name, key, span);
    }
    case OpKind::kAddAttribute: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      HRDM_ASSIGN_OR_RETURN(AttributeDef def, GetAttributeDef(&r));
      return db->AddAttribute(name, std::move(def));
    }
    case OpKind::kCloseAttribute: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      HRDM_ASSIGN_OR_RETURN(std::string attr, r.GetString());
      HRDM_ASSIGN_OR_RETURN(int64_t at, r.GetSignedVarint());
      return db->CloseAttribute(name, attr, at);
    }
    case OpKind::kReopenAttribute: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      HRDM_ASSIGN_OR_RETURN(std::string attr, r.GetString());
      HRDM_ASSIGN_OR_RETURN(Lifespan span, DecodeLifespan(&r));
      return db->ReopenAttribute(name, attr, span);
    }
    case OpKind::kRegisterForeignKey: {
      HRDM_ASSIGN_OR_RETURN(std::string child, r.GetString());
      HRDM_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      if (n > r.remaining()) return Status::Corruption("FK attrs too large");
      std::vector<std::string> attrs;
      for (uint64_t i = 0; i < n; ++i) {
        HRDM_ASSIGN_OR_RETURN(std::string a, r.GetString());
        attrs.push_back(std::move(a));
      }
      HRDM_ASSIGN_OR_RETURN(std::string parent, r.GetString());
      return db->RegisterForeignKey(std::move(child), std::move(attrs),
                                    std::move(parent));
    }
    case OpKind::kCreateLifespanIndex: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      return db->CreateLifespanIndex(name);
    }
    case OpKind::kCreateValueIndex: {
      HRDM_ASSIGN_OR_RETURN(std::string name, r.GetString());
      HRDM_ASSIGN_OR_RETURN(std::string attr, r.GetString());
      return db->CreateValueIndex(name, attr);
    }
  }
  return Status::Corruption("unknown log record kind");
}

}  // namespace hrdm::storage
