#ifndef HRDM_CORE_INTERPOLATION_H_
#define HRDM_CORE_INTERPOLATION_H_

/// \file interpolation.h
/// \brief Interpolation functions: the representation-level → model-level
/// mapping of Figure 9.
///
/// The paper (Section 3): "the mapping from the representation level to the
/// model level must include, for any such attribute, an *interpolation
/// function* I ... which maps each such 'partially-represented function'
/// into a total function from S." The paper defers the catalogue of
/// interpolation functions to [Clifford 85]; we implement the three
/// canonical choices:
///
///  * `kDiscrete`  — no interpolation: the function is defined only where a
///    value is stored. (Suitable for event-like attributes.)
///  * `kStepwise`  — stored values persist until the next stored value
///    ("stair-step"): the classical choice for state-like attributes such
///    as Salary or Manager.
///  * `kLinear`    — linear interpolation between stored numeric samples
///    (requires a kDouble range): suitable for sampled measurements such as
///    the paper's Daily-Trading-Volume.

#include <cstdint>
#include <string_view>

#include "core/lifespan.h"
#include "core/temporal_value.h"
#include "util/status.h"

namespace hrdm {

/// \brief Which interpolation function maps stored (partial) values to the
/// model-level total function.
enum class InterpolationKind : uint8_t {
  kDiscrete = 0,
  kStepwise = 1,
  kLinear = 2,
};

/// \brief Applies interpolation `kind` to the partially-represented
/// function `stored`, producing a function defined on as much of `target`
/// as the interpolation semantics allow:
///
///  * kDiscrete: `stored.Restrict(target)` — the identity interpolation.
///  * kStepwise: each stored value extends forward in time until the chronon
///    before the next stored value (and the last stored value extends to the
///    end of `target`); chronons of `target` before the first stored value
///    remain undefined.
///  * kLinear: within `target`, chronons between two consecutive stored
///    runs take the linearly interpolated value between the last value of
///    the earlier run and the first value of the later run; the last run
///    extends stepwise to the end of `target`. Requires a kDouble range.
///
/// The result's domain is always a subset of `target`; if `stored` is
/// entirely outside/after `target` the result may be empty.
Result<TemporalValue> Interpolate(const TemporalValue& stored,
                                  const Lifespan& target,
                                  InterpolationKind kind);

}  // namespace hrdm

#endif  // HRDM_CORE_INTERPOLATION_H_
