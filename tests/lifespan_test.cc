// Unit and property tests for the Lifespan interval-set kernel.

#include "core/lifespan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/random.h"

namespace hrdm {
namespace {

TEST(IntervalTest, BasicPredicates) {
  Interval iv(3, 7);
  EXPECT_TRUE(iv.valid());
  EXPECT_EQ(iv.length(), 5u);
  EXPECT_TRUE(iv.contains(3));
  EXPECT_TRUE(iv.contains(7));
  EXPECT_FALSE(iv.contains(8));
  EXPECT_FALSE(Interval(5, 4).valid());
}

TEST(IntervalTest, OverlapAndAdjacency) {
  EXPECT_TRUE(Interval(0, 5).overlaps(Interval(5, 9)));
  EXPECT_FALSE(Interval(0, 4).overlaps(Interval(5, 9)));
  EXPECT_TRUE(Interval(0, 4).adjacent(Interval(5, 9)));
  EXPECT_TRUE(Interval(5, 9).adjacent(Interval(0, 4)));
  EXPECT_FALSE(Interval(0, 3).adjacent(Interval(5, 9)));
}

TEST(IntervalTest, Intersect) {
  EXPECT_EQ(Interval(0, 5).intersect(Interval(3, 9)), Interval(3, 5));
  EXPECT_FALSE(Interval(0, 2).intersect(Interval(5, 9)).valid());
}

TEST(IntervalTest, ToString) {
  EXPECT_EQ(Interval(2, 6).ToString(), "[2,6]");
  EXPECT_EQ(Interval::At(4).ToString(), "[4]");
}

TEST(LifespanTest, EmptyBehaviour) {
  Lifespan l;
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.Cardinality(), 0u);
  EXPECT_FALSE(l.Contains(0));
  EXPECT_EQ(l.ToString(), "{}");
  EXPECT_EQ(l.Union(l), l);
  EXPECT_EQ(l.Intersect(l), l);
  EXPECT_EQ(l.Difference(l), l);
}

TEST(LifespanTest, CanonicalizationMergesOverlapsAndAdjacency) {
  Lifespan l = Lifespan::FromIntervals(
      {Interval(5, 9), Interval(0, 3), Interval(4, 4), Interval(7, 12)});
  // [0,3] + [4,4] adjacent -> [0,4]; [0,4] adjacent to [5,9] -> [0,9];
  // overlaps [7,12] -> [0,12].
  ASSERT_EQ(l.IntervalCount(), 1u);
  EXPECT_EQ(l.intervals()[0], Interval(0, 12));
}

TEST(LifespanTest, CanonicalizationDropsInvalid) {
  Lifespan l = Lifespan::FromIntervals({Interval(5, 3), Interval(1, 2)});
  EXPECT_EQ(l, Span(1, 2));
}

TEST(LifespanTest, FromPoints) {
  Lifespan l = Lifespan::FromPoints({5, 1, 2, 3, 9, 2});
  EXPECT_EQ(l.ToString(), "{[1,3],[5],[9]}");
  EXPECT_EQ(l.Cardinality(), 5u);
}

TEST(LifespanTest, ContainsBinarySearch) {
  Lifespan l = Lifespan::FromIntervals({Interval(0, 4), Interval(10, 14)});
  for (TimePoint t = 0; t <= 4; ++t) EXPECT_TRUE(l.Contains(t)) << t;
  for (TimePoint t = 5; t <= 9; ++t) EXPECT_FALSE(l.Contains(t)) << t;
  for (TimePoint t = 10; t <= 14; ++t) EXPECT_TRUE(l.Contains(t)) << t;
  EXPECT_FALSE(l.Contains(-1));
  EXPECT_FALSE(l.Contains(15));
}

TEST(LifespanTest, UnionDisjointAndGapPreserving) {
  Lifespan a = Span(0, 3);
  Lifespan b = Span(8, 10);
  Lifespan u = a.Union(b);
  EXPECT_EQ(u.ToString(), "{[0,3],[8,10]}");
  EXPECT_EQ(u.Cardinality(), 7u);
}

TEST(LifespanTest, IntersectBasic) {
  Lifespan a = Lifespan::FromIntervals({Interval(0, 5), Interval(10, 20)});
  Lifespan b = Lifespan::FromIntervals({Interval(4, 12), Interval(18, 30)});
  EXPECT_EQ(a.Intersect(b).ToString(), "{[4,5],[10,12],[18,20]}");
  EXPECT_EQ(a.Intersect(b), b.Intersect(a));
}

TEST(LifespanTest, DifferenceSplitsIntervals) {
  Lifespan a = Span(0, 10);
  Lifespan b = Lifespan::FromIntervals({Interval(2, 3), Interval(7, 8)});
  EXPECT_EQ(a.Difference(b).ToString(), "{[0,1],[4,6],[9,10]}");
}

TEST(LifespanTest, DifferenceRemovesAll) {
  EXPECT_TRUE(Span(3, 5).Difference(Span(0, 9)).empty());
}

TEST(LifespanTest, DifferenceNoOverlap) {
  Lifespan a = Span(0, 4);
  EXPECT_EQ(a.Difference(Span(10, 20)), a);
}

TEST(LifespanTest, ContainsAll) {
  Lifespan a = Lifespan::FromIntervals({Interval(0, 10), Interval(20, 30)});
  EXPECT_TRUE(a.ContainsAll(Span(2, 5)));
  EXPECT_TRUE(a.ContainsAll(
      Lifespan::FromIntervals({Interval(0, 3), Interval(25, 30)})));
  EXPECT_FALSE(a.ContainsAll(Span(5, 25)));
  EXPECT_TRUE(a.ContainsAll(Lifespan::Empty()));
  EXPECT_FALSE(Lifespan::Empty().ContainsAll(a));
}

TEST(LifespanTest, Overlaps) {
  Lifespan a = Lifespan::FromIntervals({Interval(0, 2), Interval(8, 9)});
  EXPECT_TRUE(a.Overlaps(Span(2, 3)));
  EXPECT_TRUE(a.Overlaps(Span(9, 30)));
  EXPECT_FALSE(a.Overlaps(Span(3, 7)));
  EXPECT_FALSE(a.Overlaps(Lifespan::Empty()));
}

TEST(LifespanTest, MinMaxExtent) {
  Lifespan a = Lifespan::FromIntervals({Interval(3, 5), Interval(9, 12)});
  EXPECT_EQ(a.Min(), 3);
  EXPECT_EQ(a.Max(), 12);
}

/// All chronons of `l` in ascending order, through its iterator.
std::vector<TimePoint> Materialize(const Lifespan& l) {
  std::vector<TimePoint> out;
  for (TimePoint t : l) out.push_back(t);
  return out;
}

TEST(LifespanTest, MaterializeAndIteratorAgree) {
  Lifespan a = Lifespan::FromIntervals({Interval(1, 3), Interval(7, 8)});
  EXPECT_EQ(Materialize(a), (std::vector<TimePoint>{1, 2, 3, 7, 8}));
  EXPECT_EQ(Materialize(a).size(), a.Cardinality());
}

/// First chronon >= t in `l`, or kTimeMax if none.
TimePoint NextOnOrAfter(const Lifespan& l, TimePoint t) {
  const Lifespan rest = l.Intersect(Span(t, kTimeMax));
  return rest.empty() ? kTimeMax : rest.Min();
}

TEST(LifespanTest, NextOnOrAfter) {
  Lifespan a = Lifespan::FromIntervals({Interval(5, 7), Interval(12, 14)});
  EXPECT_EQ(NextOnOrAfter(a, 0), 5);
  EXPECT_EQ(NextOnOrAfter(a, 6), 6);
  EXPECT_EQ(NextOnOrAfter(a, 8), 12);
  EXPECT_EQ(NextOnOrAfter(a, 15), kTimeMax);
}

TEST(LifespanTest, ComplementWithin) {
  Lifespan universe = Span(0, 9);
  Lifespan a = Lifespan::FromIntervals({Interval(0, 2), Interval(5, 6)});
  EXPECT_EQ(a.ComplementWithin(universe).ToString(), "{[3,4],[7,9]}");
}

// ---------------------------------------------------------------------------
// Property tests: the set algebra laws (the paper relies on lifespans being
// closed under ∪, ∩, − with standard set semantics). Verified against a
// reference std::set implementation on random instances.
// ---------------------------------------------------------------------------

Lifespan RandomLifespan(Rng* rng, TimePoint hi = 60) {
  std::vector<Interval> ivs;
  const int n = static_cast<int>(rng->Uniform(0, 5));
  for (int i = 0; i < n; ++i) {
    TimePoint b = rng->Uniform(0, hi);
    TimePoint e = b + rng->Uniform(0, 10);
    ivs.push_back(Interval(b, e));
  }
  return Lifespan::FromIntervals(std::move(ivs));
}

std::set<TimePoint> AsSet(const Lifespan& l) {
  std::set<TimePoint> out;
  for (TimePoint t : l) out.insert(t);
  return out;
}

class LifespanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LifespanPropertyTest, SetOpsMatchReferenceSets) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    Lifespan a = RandomLifespan(&rng);
    Lifespan b = RandomLifespan(&rng);
    std::set<TimePoint> sa = AsSet(a), sb = AsSet(b);

    std::set<TimePoint> su, si, sd;
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                   std::inserter(su, su.begin()));
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::inserter(si, si.begin()));
    std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::inserter(sd, sd.begin()));

    EXPECT_EQ(AsSet(a.Union(b)), su);
    EXPECT_EQ(AsSet(a.Intersect(b)), si);
    EXPECT_EQ(AsSet(a.Difference(b)), sd);
  }
}

TEST_P(LifespanPropertyTest, AlgebraicLaws) {
  Rng rng(GetParam() * 31 + 7);
  for (int iter = 0; iter < 50; ++iter) {
    Lifespan a = RandomLifespan(&rng);
    Lifespan b = RandomLifespan(&rng);
    Lifespan c = RandomLifespan(&rng);

    // Commutativity.
    EXPECT_EQ(a.Union(b), b.Union(a));
    EXPECT_EQ(a.Intersect(b), b.Intersect(a));
    // Associativity.
    EXPECT_EQ(a.Union(b).Union(c), a.Union(b.Union(c)));
    EXPECT_EQ(a.Intersect(b).Intersect(c), a.Intersect(b.Intersect(c)));
    // Distributivity.
    EXPECT_EQ(a.Intersect(b.Union(c)),
              a.Intersect(b).Union(a.Intersect(c)));
    EXPECT_EQ(a.Union(b.Intersect(c)),
              a.Union(b).Intersect(a.Union(c)));
    // Idempotence and identity.
    EXPECT_EQ(a.Union(a), a);
    EXPECT_EQ(a.Intersect(a), a);
    EXPECT_EQ(a.Union(Lifespan::Empty()), a);
    EXPECT_TRUE(a.Intersect(Lifespan::Empty()).empty());
    // Difference identities.
    EXPECT_EQ(a.Difference(b), a.Difference(a.Intersect(b)));
    EXPECT_EQ(a.Difference(b).Union(a.Intersect(b)), a);
    // De Morgan within a universe.
    Lifespan u = a.Union(b).Union(c).Union(Span(0, 80));
    EXPECT_EQ(a.Union(b).ComplementWithin(u),
              a.ComplementWithin(u).Intersect(b.ComplementWithin(u)));
    EXPECT_EQ(a.Intersect(b).ComplementWithin(u),
              a.ComplementWithin(u).Union(b.ComplementWithin(u)));
  }
}

TEST_P(LifespanPropertyTest, CanonicalFormInvariants) {
  Rng rng(GetParam() * 97 + 13);
  for (int iter = 0; iter < 50; ++iter) {
    Lifespan a = RandomLifespan(&rng);
    Lifespan b = RandomLifespan(&rng);
    for (const Lifespan& l : {a.Union(b), a.Intersect(b), a.Difference(b)}) {
      const auto& ivs = l.intervals();
      for (size_t i = 0; i < ivs.size(); ++i) {
        EXPECT_TRUE(ivs[i].valid());
        if (i > 0) {
          // Strictly separated (disjoint and non-adjacent).
          EXPECT_GT(ivs[i].begin, ivs[i - 1].end + 1);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LifespanPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace hrdm
