#include "core/relation.h"

#include <algorithm>

namespace hrdm {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ULL;
}  // namespace

void Relation::IndexTuple(const Tuple& t, size_t idx) {
  if (scheme_->key().empty()) {
    struct_index_[t.Hash()].push_back(idx);
  } else {
    key_index_[KeyHashOf(t.KeyValues())].push_back(idx);
  }
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
  IndexTuple(*t, tuples_.size());
  tuples_.push_back(std::move(t));
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
  IndexTuple(*t, tuples_.size());
  tuples_.push_back(std::move(t));
  return Status::OK();
}

namespace {

void RemoveIndexEntry(std::unordered_map<uint64_t, std::vector<size_t>>* map,
                      uint64_t hash, size_t idx) {
  auto it = map->find(hash);
  if (it == map->end()) return;
  auto& chain = it->second;
  chain.erase(std::remove(chain.begin(), chain.end(), idx), chain.end());
  if (chain.empty()) map->erase(it);
}

}  // namespace

Status Relation::ReplaceAt(size_t idx, TuplePtr t) {
  if (!t) return Status::InvalidArgument("ReplaceAt: null tuple");
  if (idx >= tuples_.size()) {
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
  const Tuple& old = *tuples_[idx];
  if (scheme_->key().empty()) {
    RemoveIndexEntry(&struct_index_, old.Hash(), idx);
  } else {
    RemoveIndexEntry(&key_index_, KeyHashOf(old.KeyValues()), idx);
  }
  IndexTuple(*t, idx);
  tuples_[idx] = std::move(t);
  return Status::OK();
}

Status Relation::EraseAt(size_t idx) {
  if (idx >= tuples_.size()) {
    return Status::InvalidArgument("EraseAt: index out of range");
  }
  tuples_.erase(tuples_.begin() + static_cast<ptrdiff_t>(idx));
  // Rebuild the indexes (indices after idx all shift).
  key_index_.clear();
  struct_index_.clear();
  for (size_t i = 0; i < tuples_.size(); ++i) {
    IndexTuple(*tuples_[i], i);
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
  auto it = key_index_.find(KeyHashOf(key));
  if (it == key_index_.end()) return std::nullopt;
  for (size_t idx : it->second) {
    if (tuples_[idx]->KeyValues() == key) return idx;
  }
  return std::nullopt;
}

std::vector<size_t> Relation::FindAllByKey(
    const std::vector<Value>& key) const {
  std::vector<size_t> out;
  auto it = key_index_.find(KeyHashOf(key));
  if (it == key_index_.end()) return out;
  for (size_t idx : it->second) {
    if (tuples_[idx]->KeyValues() == key) out.push_back(idx);
  }
  return out;
}

std::optional<size_t> Relation::FindStructural(const Tuple& t) const {
  // Structurally equal tuples share their constant key, so a keyed scheme
  // finds duplicates on the key chain; only keyless schemes need the
  // structural map. The memoized hashes screen before full equality.
  const bool keyed = !scheme_->key().empty();
  const auto& index = keyed ? key_index_ : struct_index_;
  auto it = index.find(keyed ? KeyHashOf(t.KeyValues()) : t.Hash());
  if (it == index.end()) return std::nullopt;
  const uint64_t hash = t.Hash();
  for (size_t idx : it->second) {
    if (tuples_[idx]->Hash() == hash && *tuples_[idx] == t) return idx;
  }
  return std::nullopt;
}

Lifespan Relation::LS() const {
  Lifespan ls;
  for (const TuplePtr& t : tuples_) {
    ls = ls.Union(t->lifespan());
  }
  return ls;
}

bool Relation::EqualsAsSet(const Relation& other) const {
  if (!scheme_->SameStructure(*other.scheme_)) return false;
  if (size() != other.size()) return false;
  for (const TuplePtr& t : tuples_) {
    if (!other.FindStructural(*t).has_value()) return false;
  }
  // Sizes equal and this ⊆ other; if `this` held duplicates they would have
  // been rejected on insert, so the sets are equal.
  return true;
}

std::string Relation::ToString() const {
  std::string out = scheme_->ToString();
  out.push_back('\n');
  // Render tuples sorted by key (then hash) for deterministic output.
  std::vector<size_t> order(tuples_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const auto ka = tuples_[a]->KeyValues();
    const auto kb = tuples_[b]->KeyValues();
    if (ka != kb) return ka < kb;
    return tuples_[a]->Hash() < tuples_[b]->Hash();
  });
  for (size_t i : order) {
    out += "  ";
    out += tuples_[i]->ToString();
    out.push_back('\n');
  }
  return out;
}

}  // namespace hrdm
