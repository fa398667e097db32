#include "storage/catalog.h"

#include <algorithm>

namespace hrdm::storage {

Status Catalog::Register(SchemePtr scheme) {
  if (scheme->key().empty()) {
    return Status::InvalidArgument("base relation " + scheme->name() +
                                   " must have a key");
  }
  auto [it, inserted] = schemes_.emplace(scheme->name(), scheme);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("scheme " + scheme->name() +
                                 " already registered");
  }
  return Status::OK();
}

Status Catalog::Create(std::string name, std::vector<AttributeDef> attributes,
                       std::vector<std::string> key) {
  HRDM_ASSIGN_OR_RETURN(SchemePtr scheme,
                        RelationScheme::Make(std::move(name),
                                             std::move(attributes),
                                             std::move(key)));
  return Register(std::move(scheme));
}

Result<SchemePtr> Catalog::Get(std::string_view name) const {
  auto it = schemes_.find(name);
  if (it == schemes_.end()) {
    return Status::NotFound("scheme " + std::string(name) +
                            " not in catalog");
  }
  return it->second;
}

bool Catalog::Contains(std::string_view name) const {
  return schemes_.find(name) != schemes_.end();
}

Status Catalog::Drop(std::string_view name) {
  auto it = schemes_.find(name);
  if (it == schemes_.end()) {
    return Status::NotFound("scheme " + std::string(name) +
                            " not in catalog");
  }
  schemes_.erase(it);
  if (auto ix = indexes_.find(name); ix != indexes_.end()) indexes_.erase(ix);
  return Status::OK();
}

Status Catalog::RegisterLifespanIndex(std::string_view relation) {
  if (!Contains(relation)) {
    return Status::NotFound("scheme " + std::string(relation) +
                            " not in catalog");
  }
  indexes_[std::string(relation)].lifespan = true;
  return Status::OK();
}

Status Catalog::RegisterValueIndex(std::string_view relation,
                                   std::string_view attr) {
  if (!Contains(relation)) {
    return Status::NotFound("scheme " + std::string(relation) +
                            " not in catalog");
  }
  IndexSpec& spec = indexes_[std::string(relation)];
  if (std::find(spec.value_attrs.begin(), spec.value_attrs.end(), attr) ==
      spec.value_attrs.end()) {
    spec.value_attrs.emplace_back(attr);
  }
  return Status::OK();
}

std::optional<IndexSpec> Catalog::Indexes(std::string_view relation) const {
  auto it = indexes_.find(relation);
  if (it == indexes_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(schemes_.size());
  for (const auto& [name, scheme] : schemes_) names.push_back(name);
  return names;
}

Status Catalog::Mutate(std::string_view relation, SchemePtr replacement) {
  auto it = schemes_.find(relation);
  if (it == schemes_.end()) {
    return Status::NotFound("scheme " + std::string(relation) +
                            " not in catalog");
  }
  it->second = std::move(replacement);
  return Status::OK();
}

Status Catalog::AddAttribute(std::string_view relation, AttributeDef def) {
  HRDM_ASSIGN_OR_RETURN(SchemePtr old, Get(relation));
  if (old->IndexOf(def.name).has_value()) {
    return Status::AlreadyExists("attribute " + def.name + " already in " +
                                 old->name());
  }
  std::vector<AttributeDef> attrs = old->attributes();
  attrs.push_back(std::move(def));
  // Widen key lifespans to the new scheme lifespan.
  Lifespan scheme_ls;
  for (const AttributeDef& a : attrs) scheme_ls = scheme_ls.Union(a.lifespan);
  for (AttributeDef& a : attrs) {
    if (std::find(old->key().begin(), old->key().end(), a.name) !=
        old->key().end()) {
      a.lifespan = scheme_ls;
    }
  }
  HRDM_ASSIGN_OR_RETURN(
      SchemePtr replacement,
      RelationScheme::Make(old->name(), std::move(attrs), old->key()));
  return Mutate(relation, std::move(replacement));
}

Status Catalog::CloseAttribute(std::string_view relation,
                               std::string_view attr, TimePoint at) {
  HRDM_ASSIGN_OR_RETURN(SchemePtr old, Get(relation));
  HRDM_ASSIGN_OR_RETURN(size_t idx, old->RequireIndex(attr));
  if (old->IsKey(idx)) {
    return Status::ConstraintViolation(
        "cannot close key attribute " + std::string(attr) +
        " (key lifespans must span the scheme)");
  }
  const Lifespan& als = old->AttributeLifespan(idx);
  Lifespan closed = als.empty()
                        ? als
                        : als.Intersect(Span(als.Min(), at - 1));
  HRDM_ASSIGN_OR_RETURN(SchemePtr replacement,
                        old->WithAttributeLifespan(attr, std::move(closed)));
  return Mutate(relation, std::move(replacement));
}

Status Catalog::ReopenAttribute(std::string_view relation,
                                std::string_view attr, const Lifespan& span) {
  HRDM_ASSIGN_OR_RETURN(SchemePtr old, Get(relation));
  HRDM_ASSIGN_OR_RETURN(size_t idx, old->RequireIndex(attr));
  Lifespan reopened = old->AttributeLifespan(idx).Union(span);
  HRDM_ASSIGN_OR_RETURN(SchemePtr replacement,
                        old->WithAttributeLifespan(attr, std::move(reopened)));
  return Mutate(relation, std::move(replacement));
}

}  // namespace hrdm::storage
