#include "core/relation.h"

#include <algorithm>

namespace hrdm {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ULL;
}  // namespace

uint64_t Relation::IndexHashOf(const Tuple& t) const {
  return scheme_->key().empty() ? t.Hash() : KeyHashOf(t.KeyValues());
}

TupleChunk& Relation::OwnChunk(size_t c) {
  std::shared_ptr<TupleChunk>& chunk = chunks_[c];
  if (chunk.use_count() > 1) chunk = std::make_shared<TupleChunk>(*chunk);
  return *chunk;
}

void Relation::Append(TuplePtr t) {
  index_.Insert(IndexHashOf(*t), size());
  if (chunks_.empty() || chunks_.back()->size() == kChunkSize) {
    chunks_.push_back(std::make_shared<TupleChunk>());
    // The first chunk grows with the relation, so small results stay small.
    if (chunks_.size() > 1) chunks_.back()->reserve(kChunkSize);
  }
  OwnChunk(chunks_.size() - 1).push_back(std::move(t));
}

Status Relation::Insert(TuplePtr t) {
  if (!t) return Status::InvalidArgument("cannot insert null tuple");
  if (t->scheme() != scheme_ && !t->scheme()->SameStructure(*scheme_)) {
    return Status::IncompatibleSchemes(
        "tuple scheme " + t->scheme()->name() +
        " does not match relation scheme " + scheme_->name());
  }
  if (t->lifespan().empty()) {
    return Status::InvalidArgument("cannot insert tuple with empty lifespan");
  }
  if (!scheme_->key().empty()) {
    const std::vector<Value> key = t->KeyValues();
    if (FindByKey(key).has_value()) {
      std::string key_str;
      for (const Value& v : key) {
        if (!key_str.empty()) key_str += ",";
        key_str += v.ToString();
      }
      return Status::ConstraintViolation(
          "temporal key violation in " + scheme_->name() + ": key (" +
          key_str + ") already present");
    }
  } else if (FindStructural(*t).has_value()) {
    return Status::ConstraintViolation(
        "duplicate tuple in keyless relation " + scheme_->name());
  }
  Append(std::move(t));
  return Status::OK();
}

Status Relation::InsertOrDrop(TuplePtr t) {
  if (!t) return Status::InvalidArgument("cannot insert null tuple");
  if (t->lifespan().empty()) return Status::OK();
  return Insert(std::move(t));
}

Status Relation::InsertDedup(TuplePtr t) {
  if (!t) return Status::InvalidArgument("cannot insert null tuple");
  if (t->lifespan().empty()) return Status::OK();
  if (t->scheme() != scheme_ && !t->scheme()->SameStructure(*scheme_)) {
    return Status::IncompatibleSchemes(
        "tuple scheme " + t->scheme()->name() +
        " does not match relation scheme " + scheme_->name());
  }
  if (FindStructural(*t).has_value()) return Status::OK();
  Append(std::move(t));
  return Status::OK();
}

Status Relation::ReplaceAt(size_t idx, TuplePtr t) {
  if (!t) return Status::InvalidArgument("ReplaceAt: null tuple");
  if (idx >= size()) {
    return Status::InvalidArgument("ReplaceAt: index out of range");
  }
  if (t->scheme() != scheme_ && !t->scheme()->SameStructure(*scheme_)) {
    return Status::IncompatibleSchemes("ReplaceAt: scheme mismatch");
  }
  if (t->lifespan().empty()) {
    return Status::InvalidArgument("ReplaceAt: empty lifespan (use EraseAt)");
  }
  if (!scheme_->key().empty()) {
    auto existing = FindByKey(t->KeyValues());
    if (existing.has_value() && *existing != idx) {
      return Status::ConstraintViolation(
          "ReplaceAt: key already used by another tuple");
    }
  }
  const uint64_t old_hash = IndexHashOf(tuple(idx));
  const uint64_t new_hash = IndexHashOf(*t);
  if (old_hash != new_hash) {
    index_.Erase(old_hash, idx);
    index_.Insert(new_hash, idx);
  }
  OwnChunk(idx >> kChunkBits)[idx & (kChunkSize - 1)] = std::move(t);
  return Status::OK();
}

Status Relation::EraseAt(size_t idx) {
  const size_t n = size();
  if (idx >= n) {
    return Status::InvalidArgument("EraseAt: index out of range");
  }
  const size_t last = n - 1;
  index_.Erase(IndexHashOf(tuple(idx)), idx);
  if (idx != last) {
    TuplePtr moved = tuple_ptr(last);
    index_.Replace(IndexHashOf(*moved), last, idx);
    OwnChunk(idx >> kChunkBits)[idx & (kChunkSize - 1)] = std::move(moved);
  }
  if (chunks_.back()->size() == 1) {
    chunks_.pop_back();
  } else {
    OwnChunk(chunks_.size() - 1).pop_back();
  }
  return Status::OK();
}

uint64_t Relation::KeyHashOf(const std::vector<Value>& key) const {
  uint64_t h = 14695981039346656037ULL;
  for (const Value& v : key) {
    h = (h ^ v.Hash()) * kFnvPrime;
  }
  return h;
}

std::optional<size_t> Relation::FindByKey(
    const std::vector<Value>& key) const {
  std::optional<size_t> found;
  index_.AnyOf(KeyHashOf(key), [&](size_t idx) {
    if (tuple(idx).KeyValues() != key) return false;
    found = idx;
    return true;
  });
  return found;
}

std::vector<size_t> Relation::FindAllByKey(
    const std::vector<Value>& key) const {
  std::vector<size_t> out;
  index_.AnyOf(KeyHashOf(key), [&](size_t idx) {
    if (tuple(idx).KeyValues() == key) out.push_back(idx);
    return false;
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<size_t> Relation::FindStructural(const Tuple& t) const {
  // Structurally equal tuples share their constant key, so a keyed scheme
  // finds duplicates on the key chain; only keyless schemes need the
  // structural map. The memoized hashes screen before full equality.
  std::optional<size_t> found;
  const uint64_t hash = t.Hash();
  index_.AnyOf(IndexHashOf(t), [&](size_t idx) {
    const Tuple& candidate = tuple(idx);
    if (candidate.Hash() != hash || !(candidate == t)) return false;
    found = idx;
    return true;
  });
  return found;
}

Lifespan Relation::LS() const {
  Lifespan ls;
  for (const Tuple& t : *this) {
    ls = ls.Union(t.lifespan());
  }
  return ls;
}

bool Relation::EqualsAsSet(const Relation& other) const {
  if (!scheme_->SameStructure(*other.scheme_)) return false;
  if (size() != other.size()) return false;
  for (const Tuple& t : *this) {
    if (!other.FindStructural(t).has_value()) return false;
  }
  // Sizes equal and this ⊆ other; if `this` held duplicates they would have
  // been rejected on insert, so the sets are equal.
  return true;
}

std::string Relation::ToString() const {
  std::string out = scheme_->ToString();
  out.push_back('\n');
  // Render tuples sorted by key (then hash) for deterministic output.
  std::vector<const Tuple*> order;
  order.reserve(size());
  for (const Tuple& t : *this) order.push_back(&t);
  std::sort(order.begin(), order.end(), [](const Tuple* a, const Tuple* b) {
    const auto ka = a->KeyValues();
    const auto kb = b->KeyValues();
    if (ka != kb) return ka < kb;
    return a->Hash() < b->Hash();
  });
  for (const Tuple* t : order) {
    out += "  ";
    out += t->ToString();
    out.push_back('\n');
  }
  return out;
}

}  // namespace hrdm
