#ifndef HRDM_CORE_LIFESPAN_H_
#define HRDM_CORE_LIFESPAN_H_

/// \file lifespan.h
/// \brief Lifespans: arbitrary finite subsets of the time line `T`.
///
/// Section 2/3 of the paper: "A lifespan L is any subset of the set T", and
/// lifespans are closed under the set-theoretic operations (union,
/// intersection, difference). Lifespans are the unifying temporal construct
/// of HRDM — they are attached to tuples, to attributes in a scheme, and are
/// a first-class sort of the algebra (the `WHEN` operator returns one).
///
/// Representation: a canonical, sorted vector of disjoint, *non-adjacent*
/// closed intervals. Because time is discrete, [1,3] ∪ [4,6] is the same set
/// as [1,6]; canonicalisation merges such runs, which gives us O(n) set
/// operations by linear sweep and makes equality of sets equality of
/// representations. This is the paper's "representation level" coding of a
/// lifespan; the "model level" view is the set of chronons, reachable by
/// iteration.

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.h"
#include "util/status.h"

namespace hrdm {

/// \brief A finite subset of the discrete time line, canonically coded as
/// sorted disjoint non-adjacent closed intervals.
///
/// Value semantics; cheap to copy for typical interval counts. All set
/// operations return canonical lifespans.
class Lifespan {
 public:
  /// \brief The empty lifespan (the paper's "never").
  Lifespan() = default;

  /// \brief Lifespan consisting of a single closed interval.
  /// Requires iv.valid(); an invalid interval yields the empty lifespan.
  explicit Lifespan(Interval iv) {
    if (iv.valid()) intervals_.push_back(iv);
  }

  /// \brief Builds a lifespan from an arbitrary (unsorted, overlapping)
  /// interval list; invalid intervals are dropped, the rest canonicalised.
  static Lifespan FromIntervals(std::vector<Interval> ivs);

  /// \brief Builds a lifespan from intervals that are already valid, sorted
  /// by begin and pairwise disjoint (e.g. the output of an interval sweep):
  /// adjacent runs are merged in one linear pass, nothing is sorted. Feeding
  /// unsorted or overlapping intervals violates the canonical-form
  /// invariant — use `FromIntervals` when the input is arbitrary.
  static Lifespan FromSortedDisjoint(std::vector<Interval> ivs);

  /// \brief Builds a lifespan from arbitrary chronons (duplicates fine).
  static Lifespan FromPoints(std::vector<TimePoint> points);

  /// \brief The single-chronon lifespan {t}.
  static Lifespan Point(TimePoint t) { return Lifespan(Interval::At(t)); }

  /// \brief The empty lifespan.
  static Lifespan Empty() { return Lifespan(); }

  bool empty() const { return intervals_.empty(); }

  /// \brief Number of chronons in the set (model-level cardinality).
  uint64_t Cardinality() const;

  /// \brief Number of maximal intervals (representation-level size).
  size_t IntervalCount() const { return intervals_.size(); }

  const std::vector<Interval>& intervals() const { return intervals_; }

  /// \brief Earliest chronon. Requires !empty().
  TimePoint Min() const { return intervals_.front().begin; }
  /// \brief Latest chronon. Requires !empty().
  TimePoint Max() const { return intervals_.back().end; }

  /// \brief Membership test, O(log n).
  bool Contains(TimePoint t) const;

  /// \brief True if every chronon of `other` is in this set.
  bool ContainsAll(const Lifespan& other) const;

  /// \brief True if the two sets share at least one chronon.
  bool Overlaps(const Lifespan& other) const;

  /// \brief Set union L1 ∪ L2.
  Lifespan Union(const Lifespan& other) const;

  /// \brief Set intersection L1 ∩ L2.
  Lifespan Intersect(const Lifespan& other) const;

  /// \brief Set difference L1 − L2.
  Lifespan Difference(const Lifespan& other) const;

  /// \brief Relative complement within `universe`: universe − this.
  /// (The paper allows complementation relative to T; with finite storage we
  /// complement relative to an explicit finite universe.)
  Lifespan ComplementWithin(const Lifespan& universe) const {
    return universe.Difference(*this);
  }

  bool operator==(const Lifespan& other) const {
    return intervals_ == other.intervals_;
  }
  bool operator!=(const Lifespan& other) const { return !(*this == other); }

  /// \brief Renders e.g. "{[0,4],[7],[9,12]}"; "{}" when empty.
  std::string ToString() const;

  /// \brief Forward iterator over individual chronons.
  class PointIterator {
   public:
    PointIterator(const Lifespan* ls, size_t idx, TimePoint t)
        : ls_(ls), idx_(idx), t_(t) {}
    TimePoint operator*() const { return t_; }
    PointIterator& operator++();
    bool operator==(const PointIterator& o) const {
      return idx_ == o.idx_ && t_ == o.t_;
    }
    bool operator!=(const PointIterator& o) const { return !(*this == o); }

   private:
    const Lifespan* ls_;
    size_t idx_;  // current interval index; intervals_.size() == end.
    TimePoint t_;
  };

  PointIterator begin() const {
    if (empty()) return end();
    return PointIterator(this, 0, intervals_.front().begin);
  }
  PointIterator end() const {
    return PointIterator(this, intervals_.size(), 0);
  }

 private:
  /// Sorted, disjoint, non-adjacent, all valid().
  std::vector<Interval> intervals_;
};

/// \brief Convenience: the lifespan [b,e] as a free function, reading close
/// to the paper's notation.
inline Lifespan Span(TimePoint b, TimePoint e) {
  return Lifespan(Interval(b, e));
}

}  // namespace hrdm

#endif  // HRDM_CORE_LIFESPAN_H_
