#include "core/lifespan.h"

#include <algorithm>

namespace hrdm {

namespace {

/// Canonicalises a mutable interval list in place: sorts by begin, drops
/// invalid entries, merges overlapping and adjacent runs.
void Canonicalize(std::vector<Interval>* ivs) {
  ivs->erase(std::remove_if(ivs->begin(), ivs->end(),
                            [](const Interval& iv) { return !iv.valid(); }),
             ivs->end());
  std::sort(ivs->begin(), ivs->end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin || (a.begin == b.begin && a.end < b.end);
            });
  size_t out = 0;
  for (size_t i = 0; i < ivs->size(); ++i) {
    if (out == 0) {
      (*ivs)[out++] = (*ivs)[i];
      continue;
    }
    Interval& last = (*ivs)[out - 1];
    const Interval& cur = (*ivs)[i];
    if (cur.overlaps(last) || last.adjacent(cur)) {
      last.end = std::max(last.end, cur.end);
    } else {
      (*ivs)[out++] = cur;
    }
  }
  ivs->resize(out);
}

}  // namespace

Lifespan Lifespan::FromIntervals(std::vector<Interval> ivs) {
  Canonicalize(&ivs);
  Lifespan ls;
  ls.intervals_ = std::move(ivs);
  return ls;
}

Lifespan Lifespan::FromSortedDisjoint(std::vector<Interval> ivs) {
  // Single merge pass — no sort. Valid, begin-sorted, pairwise-disjoint
  // input is the caller's contract; only adjacency can remain to fix.
  size_t out = 0;
  for (size_t i = 0; i < ivs.size(); ++i) {
    if (out > 0 && ivs[out - 1].adjacent(ivs[i])) {
      ivs[out - 1].end = ivs[i].end;
    } else {
      ivs[out++] = ivs[i];
    }
  }
  ivs.resize(out);
  Lifespan ls;
  ls.intervals_ = std::move(ivs);
  return ls;
}

Lifespan Lifespan::FromPoints(std::vector<TimePoint> points) {
  std::vector<Interval> ivs;
  ivs.reserve(points.size());
  for (TimePoint t : points) ivs.push_back(Interval::At(t));
  return FromIntervals(std::move(ivs));
}

uint64_t Lifespan::Cardinality() const {
  uint64_t n = 0;
  for (const Interval& iv : intervals_) n += iv.length();
  return n;
}

bool Lifespan::Contains(TimePoint t) const {
  // First interval whose begin is > t, then check its predecessor.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](TimePoint v, const Interval& iv) { return v < iv.begin; });
  if (it == intervals_.begin()) return false;
  return std::prev(it)->contains(t);
}

bool Lifespan::ContainsAll(const Lifespan& other) const {
  // Each interval of `other` must lie within a single interval of `this`
  // (canonical form guarantees no interval of a subset straddles a gap).
  size_t i = 0;
  for (const Interval& o : other.intervals_) {
    while (i < intervals_.size() && intervals_[i].end < o.begin) ++i;
    if (i == intervals_.size()) return false;
    if (!(intervals_[i].begin <= o.begin && o.end <= intervals_[i].end)) {
      return false;
    }
  }
  return true;
}

bool Lifespan::Overlaps(const Lifespan& other) const {
  size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    if (intervals_[i].overlaps(other.intervals_[j])) return true;
    if (intervals_[i].end < other.intervals_[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

Lifespan Lifespan::Union(const Lifespan& other) const {
  std::vector<Interval> merged;
  merged.reserve(intervals_.size() + other.intervals_.size());
  merged.insert(merged.end(), intervals_.begin(), intervals_.end());
  merged.insert(merged.end(), other.intervals_.begin(),
                other.intervals_.end());
  return FromIntervals(std::move(merged));
}

Lifespan Lifespan::Intersect(const Lifespan& other) const {
  std::vector<Interval> out;
  size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    Interval x = intervals_[i].intersect(other.intervals_[j]);
    if (x.valid()) out.push_back(x);
    if (intervals_[i].end < other.intervals_[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  Lifespan ls;
  ls.intervals_ = std::move(out);  // Sweep output is already canonical.
  return ls;
}

Lifespan Lifespan::Difference(const Lifespan& other) const {
  std::vector<Interval> out;
  size_t j = 0;
  for (Interval cur : intervals_) {
    // Skip subtrahend intervals entirely before cur.
    while (j < other.intervals_.size() && other.intervals_[j].end < cur.begin) {
      ++j;
    }
    size_t k = j;
    TimePoint lo = cur.begin;
    while (k < other.intervals_.size() &&
           other.intervals_[k].begin <= cur.end) {
      const Interval& sub = other.intervals_[k];
      if (sub.begin > lo) out.push_back(Interval(lo, sub.begin - 1));
      if (sub.end >= cur.end) {
        lo = cur.end;
        // Entire remainder removed.
        lo = kTimeMax;  // Sentinel meaning "nothing left".
        break;
      }
      lo = sub.end + 1;
      ++k;
    }
    if (lo != kTimeMax && lo <= cur.end) out.push_back(Interval(lo, cur.end));
  }
  Lifespan ls;
  ls.intervals_ = std::move(out);  // Sweep output is already canonical.
  return ls;
}

std::string Lifespan::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += intervals_[i].ToString();
  }
  out.push_back('}');
  return out;
}

Lifespan::PointIterator& Lifespan::PointIterator::operator++() {
  const auto& ivs = ls_->intervals();
  if (t_ < ivs[idx_].end) {
    ++t_;
  } else {
    ++idx_;
    t_ = idx_ < ivs.size() ? ivs[idx_].begin : 0;
  }
  return *this;
}

}  // namespace hrdm
