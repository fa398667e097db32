#ifndef HRDM_ALGEBRA_TIMESLICE_H_
#define HRDM_ALGEBRA_TIMESLICE_H_

/// \file timeslice.h
/// \brief TIME-SLICE (Section 4.4): reduction along the temporal dimension.
///
/// The third unary operator of the 3-D model (Figure 10). Two forms:
///
///  * static `T_L(r)`: every tuple is restricted to the lifespan parameter
///    `L` — "t.l = L ∩ t'.l ∧ t.v = t'.v|_{t.l}".
///
///  * dynamic `T_@A(r)`: for a *time-valued* attribute A (DOM(A) ⊆ TT),
///    each tuple is restricted to the *image* of its own value of A — "for
///    L, the image of t(A), t.l = L ∧ t = t'|_L". The sliced lifespan is
///    data-dependent, per tuple. (The paper's formal text sets `t.l` to the
///    image L itself; chronons of L outside the original lifespan carry no
///    values, and a tuple whose image misses its lifespan entirely would be
///    an empty shell — we keep `t.l = L ∩ t'.l`, which coincides with the
///    paper whenever the image refers to times the tuple actually lived
///    through, and drop empty results.)

#include <string_view>

#include "core/lifespan.h"
#include "core/relation.h"
#include "util/status.h"

namespace hrdm {

/// \brief Static time-slice `T_L(r)`.
Result<Relation> TimeSlice(const Relation& r, const Lifespan& l);

/// \brief Dynamic time-slice `T_@A(r)`. Errors if `attr` is unknown or not
/// time-valued (DomainType::kTime).
Result<Relation> TimeSliceDynamic(const Relation& r, std::string_view attr);

// --- per-tuple kernels (shared by the whole-relation API above and the
// --- streaming cursors in query/plan.h) --------------------------------------

/// \brief Static slice kernel: `t|_l` rebound to `out_scheme`, or null when
/// the restricted lifespan is empty. `t` must be materialized.
TuplePtr TimeSliceTuple(const TuplePtr& t, const Lifespan& l,
                        const SchemePtr& out_scheme);

/// \brief Dynamic slice kernel: `t` restricted to the image of its own
/// value of attribute `attr_idx` (pre-resolved and checked time-valued by
/// the caller), or null when empty. `t` must be materialized.
Result<TuplePtr> DynSliceTuple(const TuplePtr& t, size_t attr_idx,
                               const SchemePtr& out_scheme);

/// \brief Resolves and type-checks the dynamic-slice attribute.
Result<size_t> DynSliceAttrIndex(const RelationScheme& scheme,
                                 std::string_view attr);

}  // namespace hrdm

#endif  // HRDM_ALGEBRA_TIMESLICE_H_
