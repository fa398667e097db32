#include "storage/database.h"

#include "storage/serializer.h"

namespace hrdm::storage {
namespace {

// --- clone-on-shared mutation helpers ----------------------------------------
//
// Inside an Update the DatabaseVersion itself is private to the writer, but
// its relation/index roots may still be shared with older pinned versions.
// These helpers hand out mutable pointers, cloning a root first iff someone
// else still holds it (`use_count() > 1`) — so pinned snapshots are never
// written, and the unshared fast path mutates in place at original cost.
// A clone is shallow: a Relation copies its chunk handles and its key
// trie's root node, a RelationIndexes its lifespan-index run handles and
// value-index trie root nodes; the mutation that follows then copies only
// the chunk and trie paths it writes.

Result<Relation*> MutableRelation(DatabaseVersion& v, std::string_view name) {
  auto it = v.relations.find(name);
  if (it == v.relations.end()) {
    return Status::NotFound("relation " + std::string(name) + " not found");
  }
  if (it->second.use_count() > 1) {
    it->second = std::make_shared<Relation>(*it->second);
  }
  return it->second.get();
}

RelationIndexes* MutableIndexesIfAny(DatabaseVersion& v,
                                     std::string_view name) {
  auto it = v.indexes.find(name);
  if (it == v.indexes.end()) return nullptr;
  if (it->second.use_count() > 1) {
    it->second = std::make_shared<RelationIndexes>(*it->second);
  }
  return it->second.get();
}

RelationIndexes* MutableIndexesEntry(DatabaseVersion& v,
                                     std::string_view name) {
  auto it = v.indexes.find(name);
  if (it == v.indexes.end()) {
    it = v.indexes
             .emplace(std::string(name), std::make_shared<RelationIndexes>())
             .first;
  } else if (it->second.use_count() > 1) {
    it->second = std::make_shared<RelationIndexes>(*it->second);
  }
  return it->second.get();
}

Status RebindLocked(DatabaseVersion& v, std::string_view relation) {
  HRDM_ASSIGN_OR_RETURN(SchemePtr scheme, v.catalog.Get(relation));
  HRDM_ASSIGN_OR_RETURN(Relation * rel, MutableRelation(v, relation));
  Relation rebound(scheme);
  for (const Tuple& t : *rel) {
    HRDM_RETURN_IF_ERROR(rebound.Insert(t.Rebind(scheme)));
  }
  *rel = std::move(rebound);
  // Every tuple object was replaced, so incremental index maintenance
  // cannot apply: rebuild against the evolved scheme.
  if (RelationIndexes* idx = MutableIndexesIfAny(v, relation)) {
    HRDM_RETURN_IF_ERROR(idx->Rebuild(*rel));
  }
  return Status::OK();
}

Result<size_t> RequireTuple(const Relation& rel,
                            const std::vector<Value>& key) {
  auto idx = rel.FindByKey(key);
  if (!idx.has_value()) {
    std::string key_str;
    for (const Value& v : key) {
      if (!key_str.empty()) key_str += ",";
      key_str += v.ToString();
    }
    return Status::NotFound("no tuple with key (" + key_str + ") in " +
                            rel.scheme()->name());
  }
  return *idx;
}

}  // namespace

Database::Database()
    : versions_(std::make_unique<util::VersionCell<DatabaseVersion>>(
          std::make_shared<DatabaseVersion>())) {}

template <typename Fn>
Status Database::Mutate(Fn&& fn) {
  return versions_->Update([&](DatabaseVersion& v) -> Status {
    Status s = fn(v);
    if (s.ok()) ++v.id;
    return s;
  });
}

Status Database::CreateRelation(std::string name,
                                std::vector<AttributeDef> attributes,
                                std::vector<std::string> key) {
  HRDM_ASSIGN_OR_RETURN(SchemePtr scheme,
                        RelationScheme::Make(std::move(name),
                                             std::move(attributes),
                                             std::move(key)));
  return CreateRelation(std::move(scheme));
}

Status Database::CreateRelation(SchemePtr scheme) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_RETURN_IF_ERROR(v.catalog.Register(scheme));
    v.relations.emplace(scheme->name(), std::make_shared<Relation>(scheme));
    return Status::OK();
  });
}

Status Database::DropRelation(std::string_view name) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_RETURN_IF_ERROR(v.catalog.Drop(name));
    v.relations.erase(v.relations.find(name));
    if (auto it = v.indexes.find(name); it != v.indexes.end()) {
      v.indexes.erase(it);
    }
    // Drop dependent FK declarations silently; integrity of the rest is
    // unaffected.
    std::erase_if(v.fks, [&](const ForeignKey& fk) {
      return fk.child == name || fk.parent == name;
    });
    return Status::OK();
  });
}

std::vector<std::string> Database::RelationNames() const {
  return versions_->Peek().catalog.Names();
}

// --- access-path indexes -----------------------------------------------------

Status Database::CreateLifespanIndex(std::string_view relation) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_ASSIGN_OR_RETURN(const Relation* rel, v.Get(relation));
    HRDM_RETURN_IF_ERROR(v.catalog.RegisterLifespanIndex(relation));
    MutableIndexesEntry(v, relation)->EnableLifespan(*rel);
    return Status::OK();
  });
}

Status Database::CreateValueIndex(std::string_view relation,
                                  std::string_view attr) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_ASSIGN_OR_RETURN(const Relation* rel, v.Get(relation));
    HRDM_ASSIGN_OR_RETURN(size_t attr_index,
                          rel->scheme()->RequireIndex(attr));
    HRDM_RETURN_IF_ERROR(v.catalog.RegisterValueIndex(relation, attr));
    MutableIndexesEntry(v, relation)
        ->EnableValue(*rel, std::string(attr), attr_index);
    return Status::OK();
  });
}

Status Database::AddAttribute(std::string_view relation, AttributeDef def) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_RETURN_IF_ERROR(v.catalog.AddAttribute(relation, std::move(def)));
    return RebindLocked(v, relation);
  });
}

Status Database::CloseAttribute(std::string_view relation,
                                std::string_view attr, TimePoint at) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_RETURN_IF_ERROR(v.catalog.CloseAttribute(relation, attr, at));
    return RebindLocked(v, relation);
  });
}

Status Database::ReopenAttribute(std::string_view relation,
                                 std::string_view attr,
                                 const Lifespan& span) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_RETURN_IF_ERROR(v.catalog.ReopenAttribute(relation, attr, span));
    return RebindLocked(v, relation);
  });
}

Status Database::Insert(std::string_view relation, Tuple t) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_ASSIGN_OR_RETURN(Relation * rel, MutableRelation(v, relation));
    HRDM_RETURN_IF_ERROR(rel->Insert(std::move(t)));
    if (RelationIndexes* idx = MutableIndexesIfAny(v, relation)) {
      idx->OnInsert(rel->tuple_ptr(rel->size() - 1));
    }
    return Status::OK();
  });
}

Status Database::Assign(std::string_view relation,
                        const std::vector<Value>& key, std::string_view attr,
                        const Lifespan& span, const Value& value) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_ASSIGN_OR_RETURN(Relation * rel, MutableRelation(v, relation));
    HRDM_ASSIGN_OR_RETURN(size_t idx, RequireTuple(*rel, key));
    const Tuple& t = rel->tuple(idx);
    HRDM_ASSIGN_OR_RETURN(size_t ai, rel->scheme()->RequireIndex(attr));
    if (rel->scheme()->IsKey(ai)) {
      return Status::ConstraintViolation(
          "cannot Assign to key attribute " + std::string(attr) +
          " (keys are constant-valued)");
    }
    if (value.absent() || value.type() != rel->scheme()->attribute(ai).type) {
      return Status::TypeError(
          "Assign to " + std::string(attr) + " expects " +
          std::string(DomainTypeName(rel->scheme()->attribute(ai).type)) +
          ", got " +
          (value.absent() ? "absent"
                          : std::string(DomainTypeName(value.type()))));
    }
    const Lifespan vls = t.Vls(ai);
    if (!vls.ContainsAll(span)) {
      return Status::ConstraintViolation(
          "Assign span " + span.ToString() + " escapes vls " +
          vls.ToString() + " of " + std::string(attr));
    }
    // Overwrite: keep old values outside `span`, write `value` over `span`.
    const TemporalValue& old = t.value(ai);
    HRDM_ASSIGN_OR_RETURN(TemporalValue fresh,
                          TemporalValue::Constant(span, value));
    std::vector<Segment> segs =
        old.Restrict(old.domain().Difference(span)).segments();
    const auto& fresh_segs = fresh.segments();
    segs.insert(segs.end(), fresh_segs.begin(), fresh_segs.end());
    HRDM_ASSIGN_OR_RETURN(TemporalValue merged,
                          TemporalValue::FromSegments(std::move(segs)));

    std::vector<TemporalValue> values;
    values.reserve(t.arity());
    for (size_t i = 0; i < t.arity(); ++i) {
      values.push_back(i == ai ? merged : t.value(i));
    }
    const TuplePtr old_tuple = rel->tuple_ptr(idx);
    HRDM_RETURN_IF_ERROR(rel->ReplaceAt(
        idx,
        Tuple::FromParts(rel->scheme(), t.lifespan(), std::move(values))));
    if (RelationIndexes* rix = MutableIndexesIfAny(v, relation)) {
      rix->OnReplace(old_tuple, rel->tuple_ptr(idx));
    }
    return Status::OK();
  });
}

Status Database::AssignAt(std::string_view relation,
                          const std::vector<Value>& key,
                          std::string_view attr, TimePoint t,
                          const Value& value) {
  return Assign(relation, key, attr, Lifespan::Point(t), value);
}

Status Database::EndLifespan(std::string_view relation,
                             const std::vector<Value>& key, TimePoint at) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_ASSIGN_OR_RETURN(Relation * rel, MutableRelation(v, relation));
    HRDM_ASSIGN_OR_RETURN(size_t idx, RequireTuple(*rel, key));
    const Tuple& t = rel->tuple(idx);
    const Lifespan& l = t.lifespan();
    const Lifespan remaining =
        l.empty() ? l : l.Intersect(Span(l.Min(), at - 1));
    const TuplePtr old = rel->tuple_ptr(idx);
    if (remaining.empty()) {
      HRDM_RETURN_IF_ERROR(rel->EraseAt(idx));
      if (RelationIndexes* rix = MutableIndexesIfAny(v, relation)) {
        rix->OnRemove(old);
      }
      return Status::OK();
    }
    HRDM_RETURN_IF_ERROR(
        rel->ReplaceAt(idx, t.Restrict(remaining, rel->scheme())));
    if (RelationIndexes* rix = MutableIndexesIfAny(v, relation)) {
      rix->OnReplace(old, rel->tuple_ptr(idx));
    }
    return Status::OK();
  });
}

Status Database::Reincarnate(std::string_view relation,
                             const std::vector<Value>& key,
                             const Lifespan& span) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_ASSIGN_OR_RETURN(Relation * rel, MutableRelation(v, relation));
    HRDM_ASSIGN_OR_RETURN(size_t idx, RequireTuple(*rel, key));
    const Tuple& t = rel->tuple(idx);
    const SchemePtr& scheme = rel->scheme();
    Lifespan extended = t.lifespan().Union(span);
    std::vector<TemporalValue> values;
    values.reserve(t.arity());
    for (size_t i = 0; i < t.arity(); ++i) {
      if (scheme->IsKey(i)) {
        // Keys stay constant and total over the extended vls.
        const Lifespan vls = extended.Intersect(scheme->AttributeLifespan(i));
        HRDM_ASSIGN_OR_RETURN(
            TemporalValue kv,
            TemporalValue::Constant(vls, t.value(i).ConstantValue()));
        values.push_back(std::move(kv));
      } else {
        values.push_back(t.value(i));
      }
    }
    const TuplePtr old = rel->tuple_ptr(idx);
    HRDM_RETURN_IF_ERROR(rel->ReplaceAt(
        idx,
        Tuple::FromParts(scheme, std::move(extended), std::move(values))));
    if (RelationIndexes* rix = MutableIndexesIfAny(v, relation)) {
      rix->OnReplace(old, rel->tuple_ptr(idx));
    }
    return Status::OK();
  });
}

Status Database::RegisterForeignKey(std::string child,
                                    std::vector<std::string> attrs,
                                    std::string parent) {
  return Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_ASSIGN_OR_RETURN(const Relation* c, v.Get(child));
    HRDM_ASSIGN_OR_RETURN(const Relation* p, v.Get(parent));
    // Validate arity/domains now so bad declarations fail early.
    if (p->scheme()->key().empty()) {
      return Status::InvalidArgument("FK parent " + parent + " has no key");
    }
    if (attrs.size() != p->scheme()->key().size()) {
      return Status::InvalidArgument(
          "FK attribute count does not match parent key arity");
    }
    for (size_t k = 0; k < attrs.size(); ++k) {
      HRDM_ASSIGN_OR_RETURN(size_t ci, c->scheme()->RequireIndex(attrs[k]));
      const size_t pi = p->scheme()->key_indices()[k];
      if (c->scheme()->attribute(ci).type !=
          p->scheme()->attribute(pi).type) {
        return Status::TypeError("FK attribute " + attrs[k] +
                                 " domain does not match parent key");
      }
    }
    v.fks.push_back(ForeignKey{std::move(child), std::move(attrs),
                               std::move(parent)});
    return Status::OK();
  });
}

Result<Database> Database::DecodeSnapshot(std::string_view data) {
  Reader r(data);
  HRDM_ASSIGN_OR_RETURN(uint64_t magic, r.GetVarint());
  if (magic != kSnapshotMagic) {
    return Status::Corruption("not an HRDM snapshot (bad magic)");
  }
  HRDM_ASSIGN_OR_RETURN(uint64_t version, r.GetVarint());
  if (version != kSnapshotVersion) {
    return Status::Corruption("unsupported snapshot version");
  }
  Database db;
  HRDM_RETURN_IF_ERROR(db.Mutate([&](DatabaseVersion& v) -> Status {
    HRDM_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
    for (uint64_t i = 0; i < n; ++i) {
      HRDM_ASSIGN_OR_RETURN(Relation rel, DecodeRelation(&r));
      HRDM_RETURN_IF_ERROR(v.catalog.Register(rel.scheme()));
      std::string name = rel.scheme()->name();
      v.relations.emplace(std::move(name),
                          std::make_shared<Relation>(std::move(rel)));
    }
    HRDM_ASSIGN_OR_RETURN(uint64_t fk_n, r.GetVarint());
    for (uint64_t i = 0; i < fk_n; ++i) {
      ForeignKey fk;
      HRDM_ASSIGN_OR_RETURN(fk.child, r.GetString());
      HRDM_ASSIGN_OR_RETURN(uint64_t attr_n, r.GetVarint());
      for (uint64_t k = 0; k < attr_n; ++k) {
        HRDM_ASSIGN_OR_RETURN(std::string a, r.GetString());
        fk.attrs.push_back(std::move(a));
      }
      HRDM_ASSIGN_OR_RETURN(fk.parent, r.GetString());
      v.fks.push_back(std::move(fk));
    }
    if (!r.AtEnd()) {
      return Status::Corruption("trailing bytes after snapshot");
    }
    return Status::OK();
  }));
  return db;
}

}  // namespace hrdm::storage
