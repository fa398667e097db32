#include "algebra/timeslice.h"

#include "algebra/setops.h"

namespace hrdm {

TuplePtr TimeSliceTuple(const TuplePtr& t, const Lifespan& l,
                        const SchemePtr& out_scheme) {
  Tuple restricted = t->Restrict(l, out_scheme);
  if (restricted.lifespan().empty()) return TuplePtr();
  return std::make_shared<const Tuple>(std::move(restricted));
}

Result<TuplePtr> DynSliceTuple(const TuplePtr& t, size_t attr_idx,
                               const SchemePtr& out_scheme) {
  HRDM_ASSIGN_OR_RETURN(Lifespan image, t->value(attr_idx).TimeImage());
  return TimeSliceTuple(t, image, out_scheme);
}

Result<size_t> DynSliceAttrIndex(const RelationScheme& scheme,
                                 std::string_view attr) {
  HRDM_ASSIGN_OR_RETURN(size_t idx, scheme.RequireIndex(attr));
  if (scheme.attribute(idx).type != DomainType::kTime) {
    return Status::TypeError(
        "dynamic TIME-SLICE requires a time-valued attribute (DOM(A) in "
        "TT); " +
        std::string(attr) + " is " +
        std::string(DomainTypeName(scheme.attribute(idx).type)));
  }
  return idx;
}

Result<Relation> TimeSlice(const Relation& r, const Lifespan& l) {
  HRDM_ASSIGN_OR_RETURN(Relation m, MaterializeRelation(r));
  Relation out(r.scheme());
  for (const TuplePtr& t : m.tuple_ptrs()) {
    if (TuplePtr sliced = TimeSliceTuple(t, l, r.scheme())) {
      HRDM_RETURN_IF_ERROR(out.InsertDedup(std::move(sliced)));
    }
  }
  out.set_materialized(true);
  return out;
}

Result<Relation> TimeSliceDynamic(const Relation& r, std::string_view attr) {
  HRDM_ASSIGN_OR_RETURN(size_t idx, DynSliceAttrIndex(*r.scheme(), attr));
  HRDM_ASSIGN_OR_RETURN(Relation m, MaterializeRelation(r));
  Relation out(r.scheme());
  for (const TuplePtr& t : m.tuple_ptrs()) {
    HRDM_ASSIGN_OR_RETURN(TuplePtr sliced, DynSliceTuple(t, idx, r.scheme()));
    if (sliced) {
      HRDM_RETURN_IF_ERROR(out.InsertDedup(std::move(sliced)));
    }
  }
  out.set_materialized(true);
  return out;
}

}  // namespace hrdm
