#include "core/tuple.h"

#include "util/format.h"

namespace hrdm {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ULL;
}  // namespace

Tuple::Builder::Builder(SchemePtr scheme, Lifespan lifespan)
    : scheme_(std::move(scheme)), lifespan_(std::move(lifespan)) {
  values_.resize(scheme_->arity());
  pending_.resize(scheme_->arity());
}

Tuple::Builder& Tuple::Builder::Set(std::string_view attr,
                                    TemporalValue value) {
  auto idx = scheme_->IndexOf(attr);
  if (!idx.has_value()) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::NotFound("attribute " + std::string(attr) +
                                         " not in scheme " + scheme_->name());
    }
    return *this;
  }
  values_[*idx] = std::move(value);
  pending_[*idx].clear();
  return *this;
}

Tuple::Builder& Tuple::Builder::SetConstant(std::string_view attr,
                                            Value value) {
  auto idx = scheme_->IndexOf(attr);
  if (!idx.has_value()) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::NotFound("attribute " + std::string(attr) +
                                         " not in scheme " + scheme_->name());
    }
    return *this;
  }
  const Lifespan vls =
      lifespan_.Intersect(scheme_->AttributeLifespan(*idx));
  auto tv = TemporalValue::Constant(vls, std::move(value));
  if (!tv.ok()) {
    if (deferred_error_.ok()) deferred_error_ = tv.status();
    return *this;
  }
  values_[*idx] = std::move(tv).value();
  pending_[*idx].clear();
  return *this;
}

Tuple::Builder& Tuple::Builder::SetAt(std::string_view attr, TimePoint t,
                                      Value value) {
  auto idx = scheme_->IndexOf(attr);
  if (!idx.has_value()) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::NotFound("attribute " + std::string(attr) +
                                         " not in scheme " + scheme_->name());
    }
    return *this;
  }
  pending_[*idx].push_back(Segment{Interval::At(t), std::move(value)});
  return *this;
}

Result<Tuple> Tuple::Builder::Build() && {
  HRDM_RETURN_IF_ERROR(deferred_error_);
  if (lifespan_.empty()) {
    return Status::InvalidArgument("tuple lifespan is empty");
  }
  for (size_t i = 0; i < scheme_->arity(); ++i) {
    if (!pending_[i].empty()) {
      if (!values_[i].empty()) {
        // Merge point assignments into a previously Set function.
        std::vector<Segment> segs = values_[i].segments();
        segs.insert(segs.end(), pending_[i].begin(), pending_[i].end());
        HRDM_ASSIGN_OR_RETURN(values_[i],
                              TemporalValue::FromSegments(std::move(segs)));
      } else {
        HRDM_ASSIGN_OR_RETURN(
            values_[i], TemporalValue::FromSegments(std::move(pending_[i])));
      }
    }
    const AttributeDef& a = scheme_->attribute(i);
    const TemporalValue& v = values_[i];
    if (v.empty()) {
      if (scheme_->IsKey(i)) {
        return Status::ConstraintViolation("key attribute " + a.name +
                                           " has no value");
      }
      continue;
    }
    if (*v.type() != a.type) {
      return Status::TypeError(
          "attribute " + a.name + " expects " +
          std::string(DomainTypeName(a.type)) + ", got " +
          std::string(DomainTypeName(*v.type())));
    }
    const Lifespan vls = lifespan_.Intersect(a.lifespan);
    if (!vls.ContainsAll(v.domain())) {
      return Status::ConstraintViolation(
          "value of attribute " + a.name + " escapes vls " + vls.ToString() +
          ": domain " + v.domain().ToString());
    }
    if (scheme_->IsKey(i)) {
      if (!v.IsConstant()) {
        return Status::ConstraintViolation(
            "key attribute " + a.name +
            " must be constant-valued (DOM(K) in CD)");
      }
      if (v.domain() != vls) {
        return Status::ConstraintViolation(
            "key attribute " + a.name + " must be total on vls " +
            vls.ToString() + ", has domain " + v.domain().ToString());
      }
    }
  }
  return Tuple(std::move(scheme_), std::move(lifespan_), std::move(values_));
}

Tuple Tuple::FromParts(SchemePtr scheme, Lifespan lifespan,
                       std::vector<TemporalValue> values) {
  if (values.size() != scheme->arity()) {
    internal::AbortWithMessage("hrdm::Tuple",
                               "FromParts: value count does not match scheme");
  }
  return Tuple(std::move(scheme), std::move(lifespan), std::move(values));
}

Result<TemporalValue> Tuple::value(std::string_view attr) const {
  HRDM_ASSIGN_OR_RETURN(size_t idx, scheme_->RequireIndex(attr));
  return values_[idx];
}

Lifespan Tuple::VlsOf(const std::vector<size_t>& indices) const {
  if (indices.empty()) return lifespan_;
  Lifespan out = Vls(indices[0]);
  for (size_t k = 1; k < indices.size(); ++k) {
    out = out.Intersect(Vls(indices[k]));
  }
  return out;
}

Result<Value> Tuple::ModelValueAt(size_t i, TimePoint s) const {
  HRDM_ASSIGN_OR_RETURN(TemporalValue model, ModelValue(i));
  return model.ValueAt(s);
}

Result<TemporalValue> Tuple::ModelValue(size_t i) const {
  return Interpolate(values_[i], Vls(i), scheme_->attribute(i).interpolation);
}

Result<Tuple> Tuple::Materialized() const {
  std::vector<TemporalValue> values;
  values.reserve(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    HRDM_ASSIGN_OR_RETURN(TemporalValue v, ModelValue(i));
    values.push_back(std::move(v));
  }
  return Tuple(scheme_, lifespan_, std::move(values));
}

Result<std::shared_ptr<const Tuple>> Tuple::MaterializedShared() const {
  if (memo_state_.load(std::memory_order_acquire) == kMemoReady) {
    return materialized_memo_;
  }
  HRDM_ASSIGN_OR_RETURN(Tuple m, Materialized());
  auto fresh = std::make_shared<const Tuple>(std::move(m));
  uint32_t expected = kMemoEmpty;
  if (memo_state_.compare_exchange_strong(expected, kMemoClaimed,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    materialized_memo_ = fresh;
    memo_state_.store(kMemoReady, std::memory_order_release);
  }
  // A losing racer keeps its own (equal-valued) materialization rather
  // than spinning until the winner publishes.
  return fresh;
}

std::vector<Value> Tuple::KeyValues() const {
  std::vector<Value> key;
  key.reserve(scheme_->key_indices().size());
  for (size_t i : scheme_->key_indices()) {
    key.push_back(values_[i].ConstantValue());
  }
  return key;
}

bool Tuple::SameKeyAs(const Tuple& other) const {
  return KeyValues() == other.KeyValues();
}

bool Tuple::MergeableWith(const Tuple& other) const {
  if (arity() != other.arity()) return false;
  if (!SameKeyAs(other)) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (!values_[i].ConsistentWith(other.values_[i])) return false;
  }
  return true;
}

Result<Tuple> Tuple::Merge(const Tuple& other, SchemePtr result_scheme) const {
  if (!MergeableWith(other)) {
    return Status::ConstraintViolation("tuples are not mergeable");
  }
  Lifespan merged_ls = lifespan_.Union(other.lifespan_);
  std::vector<TemporalValue> merged_vals;
  merged_vals.reserve(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    HRDM_ASSIGN_OR_RETURN(TemporalValue v,
                          values_[i].UnionWith(other.values_[i]));
    merged_vals.push_back(std::move(v));
  }
  return Tuple(std::move(result_scheme), std::move(merged_ls),
               std::move(merged_vals));
}

Tuple Tuple::Restrict(const Lifespan& l, SchemePtr result_scheme) const {
  const SchemePtr& scheme = result_scheme ? result_scheme : scheme_;
  // Full cover within the same scheme: `t|_L = t` when L ⊇ t.l (every vls
  // is unchanged too, since vls ⊆ t.l). One tuple copy, no interval sweeps.
  if (scheme == scheme_ && l.ContainsAll(lifespan_)) return *this;
  Lifespan new_ls = lifespan_.Intersect(l);
  std::vector<TemporalValue> new_vals;
  new_vals.reserve(values_.size());
  // Restricting within the same scheme cannot move an attribute lifespan,
  // and a stored value's domain already lies inside its old vls ⊆ ALS(i) —
  // so domain ∩ (new_ls ∩ ALS(i)) = domain ∩ new_ls and the per-attribute
  // ALS intersection (an allocation each) can be skipped. Rebinding to a
  // *different* scheme must still clip to the target's ALS.
  const bool same_scheme = scheme == scheme_;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (same_scheme) {
      new_vals.push_back(values_[i].Restrict(new_ls));
    } else {
      const Lifespan vls = new_ls.Intersect(scheme->AttributeLifespan(i));
      new_vals.push_back(values_[i].Restrict(vls));
    }
  }
  return Tuple(scheme, std::move(new_ls), std::move(new_vals));
}

Tuple Tuple::Rebind(SchemePtr scheme) const {
  Lifespan ls = lifespan_;
  std::vector<TemporalValue> vals;
  vals.reserve(scheme->arity());
  for (size_t i = 0; i < scheme->arity(); ++i) {
    const AttributeDef& a = scheme->attribute(i);
    const Lifespan vls = ls.Intersect(a.lifespan);
    // Map by name so evolved schemes (added/reordered attributes) rebind
    // correctly; attributes new to the scheme start with no history.
    auto old_idx = scheme_->IndexOf(a.name);
    if (old_idx.has_value()) {
      vals.push_back(values_[*old_idx].Restrict(vls));
    } else if (scheme->IsKey(i)) {
      // A brand-new key attribute cannot be conjured; this only happens if
      // the caller evolved the key, which the catalog forbids. Keep the
      // value empty; well-formedness checks will flag it.
      vals.emplace_back();
    } else {
      vals.emplace_back();
    }
  }
  return Tuple(std::move(scheme), std::move(ls), std::move(vals));
}

bool Tuple::operator==(const Tuple& other) const {
  return lifespan_ == other.lifespan_ && values_ == other.values_;
}

uint64_t Tuple::Hash() const {
  if (uint64_t memo = hash_memo_.load(std::memory_order_relaxed)) return memo;
  uint64_t h = 14695981039346656037ULL;
  for (const Interval& iv : lifespan_.intervals()) {
    h = (h ^ static_cast<uint64_t>(iv.begin)) * kFnvPrime;
    h = (h ^ static_cast<uint64_t>(iv.end)) * kFnvPrime;
  }
  for (const TemporalValue& v : values_) {
    h = (h ^ v.Hash()) * kFnvPrime;
  }
  if (h == 0) h = 1;  // 0 is the "not yet computed" sentinel
  hash_memo_.store(h, std::memory_order_relaxed);
  return h;
}

std::string Tuple::ToString() const {
  std::string out = "<l=";
  out += lifespan_.ToString();
  for (size_t i = 0; i < values_.size(); ++i) {
    out += ", ";
    out += scheme_->attribute(i).name;
    out += "=";
    out += values_[i].ToString();
  }
  out.push_back('>');
  return out;
}

}  // namespace hrdm
