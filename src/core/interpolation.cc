#include "core/interpolation.h"

#include <vector>

namespace hrdm {

namespace {

/// Stepwise: stored segment k's value holds from its begin through the
/// chronon before segment k+1 begins (or through target max for the last).
Result<TemporalValue> StepwiseInterpolate(const TemporalValue& stored,
                                          const Lifespan& target) {
  if (stored.empty() || target.empty()) return TemporalValue();
  const auto& segs = stored.segments();
  std::vector<Segment> extended;
  extended.reserve(segs.size());
  for (size_t k = 0; k < segs.size(); ++k) {
    TimePoint hi;
    if (k + 1 < segs.size()) {
      hi = segs[k + 1].interval.begin - 1;
    } else {
      hi = std::max(segs[k].interval.end, target.Max());
    }
    extended.push_back(Segment{Interval(segs[k].interval.begin, hi),
                               segs[k].value});
  }
  HRDM_ASSIGN_OR_RETURN(TemporalValue full,
                        TemporalValue::FromSegments(std::move(extended)));
  return full.Restrict(target);
}

/// Linear: exact on stored runs; between run k (ending at e_k, value v_k)
/// and run k+1 (starting at b_{k+1}, value w_{k+1}) chronon t takes
/// v_k + (w_{k+1} - v_k) * (t - e_k) / (b_{k+1} - e_k). After the last run,
/// extend stepwise to target max. Before the first run: undefined.
Result<TemporalValue> LinearInterpolate(const TemporalValue& stored,
                                        const Lifespan& target) {
  if (stored.empty() || target.empty()) return TemporalValue();
  if (stored.type() != DomainType::kDouble) {
    return Status::TypeError(
        "linear interpolation requires a double-valued attribute");
  }
  const auto& segs = stored.segments();
  std::vector<Segment> out;
  for (size_t k = 0; k < segs.size(); ++k) {
    out.push_back(segs[k]);
    const TimePoint e = segs[k].interval.end;
    const double v = segs[k].value.AsDouble();
    if (k + 1 < segs.size()) {
      const TimePoint b = segs[k + 1].interval.begin;
      const double w = segs[k + 1].value.AsDouble();
      // Gap chronons e+1 .. b-1. Materialised per chronon, but only for
      // chronons inside `target` (gaps outside the target cost nothing).
      const Lifespan gap =
          target.Intersect(e + 1 <= b - 1 ? Span(e + 1, b - 1)
                                          : Lifespan::Empty());
      for (TimePoint t : gap) {
        const double frac =
            static_cast<double>(t - e) / static_cast<double>(b - e);
        out.push_back(Segment{Interval::At(t), Value::Double(v + (w - v) * frac)});
      }
    } else if (target.Max() > e) {
      // Step-extend the final value.
      out.push_back(Segment{Interval(e + 1, target.Max()), Value::Double(v)});
    }
  }
  HRDM_ASSIGN_OR_RETURN(TemporalValue full,
                        TemporalValue::FromSegments(std::move(out)));
  return full.Restrict(target);
}

}  // namespace

Result<TemporalValue> Interpolate(const TemporalValue& stored,
                                  const Lifespan& target,
                                  InterpolationKind kind) {
  switch (kind) {
    case InterpolationKind::kDiscrete:
      return stored.Restrict(target);
    case InterpolationKind::kStepwise:
      return StepwiseInterpolate(stored, target);
    case InterpolationKind::kLinear:
      return LinearInterpolate(stored, target);
  }
  return Status::Internal("unhandled interpolation kind");
}

}  // namespace hrdm
