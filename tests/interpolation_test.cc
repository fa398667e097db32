// Tests for the interpolation functions (Figure 9's representation-level →
// model-level mapping).

#include "core/interpolation.h"

#include <gtest/gtest.h>

namespace hrdm {
namespace {

/// Display name of an interpolation kind, for failure messages.
std::string_view InterpolationKindName(InterpolationKind kind) {
  switch (kind) {
    case InterpolationKind::kDiscrete:
      return "discrete";
    case InterpolationKind::kStepwise:
      return "stepwise";
    case InterpolationKind::kLinear:
      return "linear";
  }
  return "unknown";
}

/// Parses an InterpolationKindName back.
Result<InterpolationKind> InterpolationKindFromName(std::string_view name) {
  if (name == "discrete") return InterpolationKind::kDiscrete;
  if (name == "stepwise") return InterpolationKind::kStepwise;
  if (name == "linear") return InterpolationKind::kLinear;
  return Status::InvalidArgument("unknown interpolation kind: " +
                                 std::string(name));
}

TemporalValue Stored(std::vector<Segment> segs) {
  return *TemporalValue::FromSegments(std::move(segs));
}

TEST(InterpolationTest, DiscreteIsRestriction) {
  TemporalValue f = Stored({{Interval(0, 2), Value::Int(1)},
                            {Interval(6, 8), Value::Int(2)}});
  auto g = Interpolate(f, Span(1, 7), InterpolationKind::kDiscrete);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->domain().ToString(), "{[1,2],[6,7]}");
  EXPECT_TRUE(g->ValueAt(4).absent());
}

TEST(InterpolationTest, StepwiseFillsGaps) {
  TemporalValue f = Stored({{Interval::At(0), Value::Int(10)},
                            {Interval::At(5), Value::Int(20)}});
  auto g = Interpolate(f, Span(0, 9), InterpolationKind::kStepwise);
  ASSERT_TRUE(g.ok());
  // 10 holds on [0,4], 20 from 5 to the end of the target.
  EXPECT_EQ(g->ValueAt(0), Value::Int(10));
  EXPECT_EQ(g->ValueAt(4), Value::Int(10));
  EXPECT_EQ(g->ValueAt(5), Value::Int(20));
  EXPECT_EQ(g->ValueAt(9), Value::Int(20));
  EXPECT_EQ(g->domain().ToString(), "{[0,9]}");
}

TEST(InterpolationTest, StepwiseUndefinedBeforeFirstSample) {
  TemporalValue f = Stored({{Interval::At(5), Value::Int(20)}});
  auto g = Interpolate(f, Span(0, 9), InterpolationKind::kStepwise);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->ValueAt(4).absent());
  EXPECT_EQ(g->ValueAt(5), Value::Int(20));
  EXPECT_EQ(g->domain().ToString(), "{[5,9]}");
}

TEST(InterpolationTest, StepwiseRespectsFragmentedTarget) {
  TemporalValue f = Stored({{Interval::At(0), Value::Int(1)}});
  const Lifespan target =
      Lifespan::FromIntervals({Interval(0, 2), Interval(6, 8)});
  auto g = Interpolate(f, target, InterpolationKind::kStepwise);
  ASSERT_TRUE(g.ok());
  // The value persists across the target's gap but is only *defined* on the
  // target (vls) chronons.
  EXPECT_EQ(g->domain(), target);
  EXPECT_EQ(g->ValueAt(7), Value::Int(1));
  EXPECT_TRUE(g->ValueAt(4).absent());
}

TEST(InterpolationTest, StepwiseIdempotentOnTotalFunctions) {
  TemporalValue f = Stored({{Interval(0, 4), Value::Int(1)},
                            {Interval(5, 9), Value::Int(2)}});
  auto g = Interpolate(f, Span(0, 9), InterpolationKind::kStepwise);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(*g, f);
}

TEST(InterpolationTest, LinearInterpolatesBetweenSamples) {
  TemporalValue f = Stored({{Interval::At(0), Value::Double(10.0)},
                            {Interval::At(4), Value::Double(30.0)}});
  auto g = Interpolate(f, Span(0, 6), InterpolationKind::kLinear);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ValueAt(0), Value::Double(10.0));
  EXPECT_EQ(g->ValueAt(1), Value::Double(15.0));
  EXPECT_EQ(g->ValueAt(2), Value::Double(20.0));
  EXPECT_EQ(g->ValueAt(3), Value::Double(25.0));
  EXPECT_EQ(g->ValueAt(4), Value::Double(30.0));
  // Step extension after the last sample.
  EXPECT_EQ(g->ValueAt(5), Value::Double(30.0));
  EXPECT_EQ(g->ValueAt(6), Value::Double(30.0));
}

TEST(InterpolationTest, LinearRequiresDouble) {
  TemporalValue f = Stored({{Interval::At(0), Value::Int(10)}});
  auto g = Interpolate(f, Span(0, 5), InterpolationKind::kLinear);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kTypeError);
}

TEST(InterpolationTest, LinearSkipsGapChrononsOutsideTarget) {
  TemporalValue f = Stored({{Interval::At(0), Value::Double(0.0)},
                            {Interval::At(10), Value::Double(10.0)}});
  const Lifespan target = Lifespan::FromIntervals({Interval(0, 2),
                                                   Interval(9, 10)});
  auto g = Interpolate(f, target, InterpolationKind::kLinear);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ValueAt(1), Value::Double(1.0));
  EXPECT_EQ(g->ValueAt(9), Value::Double(9.0));
  EXPECT_TRUE(g->ValueAt(5).absent());  // outside target
  EXPECT_EQ(g->domain(), target);
}

TEST(InterpolationTest, EmptyInputsYieldEmpty) {
  for (auto kind : {InterpolationKind::kDiscrete,
                    InterpolationKind::kStepwise,
                    InterpolationKind::kLinear}) {
    auto g = Interpolate(TemporalValue(), Span(0, 5), kind);
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g->empty());
  }
  TemporalValue f = Stored({{Interval::At(0), Value::Double(1.0)}});
  for (auto kind : {InterpolationKind::kDiscrete,
                    InterpolationKind::kStepwise,
                    InterpolationKind::kLinear}) {
    auto g = Interpolate(f, Lifespan::Empty(), kind);
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g->empty()) << InterpolationKindName(kind);
  }
}

TEST(InterpolationTest, ResultDomainAlwaysInsideTarget) {
  TemporalValue f = Stored({{Interval(0, 20), Value::Double(1.0)}});
  const Lifespan target = Span(5, 10);
  for (auto kind : {InterpolationKind::kDiscrete,
                    InterpolationKind::kStepwise,
                    InterpolationKind::kLinear}) {
    auto g = Interpolate(f, target, kind);
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(target.ContainsAll(g->domain()))
        << InterpolationKindName(kind);
  }
}

TEST(InterpolationTest, KindNamesRoundTrip) {
  for (auto kind : {InterpolationKind::kDiscrete,
                    InterpolationKind::kStepwise,
                    InterpolationKind::kLinear}) {
    auto back = InterpolationKindFromName(InterpolationKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(InterpolationKindFromName("spline").ok());
}

}  // namespace
}  // namespace hrdm
