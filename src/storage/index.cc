#include "storage/index.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <tuple>
#include <unordered_set>

#include "algebra/join.h"

namespace hrdm::storage {

// --- LifespanIndex -----------------------------------------------------------

namespace {

/// The run sort order: (begin, end, tuple address). The address makes each
/// entry's position exact, so Remove finds it by binary search instead of
/// scanning a long stretch of equal begins.
struct EntryOrder {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    auto key = [](const Entry& e) {
      return std::tuple(e.begin, e.end,
                        reinterpret_cast<uintptr_t>(e.tuple.get()));
    };
    return key(a) < key(b);
  }
};

/// Size class of a run of `n` entries; runs merge when classes collide.
int SizeClass(size_t n) { return static_cast<int>(std::bit_width(n)); }

}  // namespace

LifespanIndex::Run::Run(std::vector<Entry> sorted)
    : entries(std::move(sorted)), max_end(4 * entries.size(), kTimeMin) {
  if (entries.empty()) return;
  // Recursive build of the implicit segment tree: node covers [lo, hi) of
  // the sorted entry array; depth is log2(n).
  auto build = [&](auto&& self, size_t node, size_t lo, size_t hi) -> TimePoint {
    if (hi - lo == 1) {
      max_end[node] = entries[lo].end;
      return max_end[node];
    }
    const size_t mid = lo + (hi - lo) / 2;
    const TimePoint l = self(self, 2 * node + 1, lo, mid);
    const TimePoint r = self(self, 2 * node + 2, mid, hi);
    max_end[node] = std::max(l, r);
    return max_end[node];
  };
  build(build, 0, 0, entries.size());
}

void LifespanIndex::Run::Collect(size_t node, size_t lo, size_t hi,
                                 TimePoint qb, TimePoint qe,
                                 std::vector<size_t>* out) const {
  // Subtree prune 1: every interval in [lo, hi) ends before the window.
  if (max_end[node] < qb) return;
  // Subtree prune 2: entries are sorted by begin, so if the first entry of
  // this subtree begins after the window ends, all of them do.
  if (entries[lo].begin > qe) return;
  if (hi - lo == 1) {
    // Leaf: overlap test `begin <= qe && end >= qb` (both pruned above).
    out->push_back(lo);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  Collect(2 * node + 1, lo, mid, qb, qe, out);
  Collect(2 * node + 2, mid, hi, qb, qe, out);
}

LifespanIndex::Slot LifespanIndex::MakeSlot(std::vector<Entry> sorted) {
  Slot slot;
  slot.run = std::make_shared<const Run>(std::move(sorted));
  return slot;
}

std::vector<LifespanIndex::Entry> LifespanIndex::LiveEntries(
    const Slot& slot) {
  std::vector<Entry> live;
  live.reserve(slot.live_count());
  for (size_t i = 0; i < slot.run->entries.size(); ++i) {
    if (slot.Live(i)) live.push_back(slot.run->entries[i]);
  }
  return live;
}

void LifespanIndex::Normalize() {
  std::vector<Slot> kept;
  kept.reserve(runs_.size());
  for (Slot& slot : runs_) {
    if (slot.live_count() == 0) continue;
    kept.push_back(std::move(slot));
    while (kept.size() >= 2 &&
           SizeClass(kept.back().run->entries.size()) >=
               SizeClass(kept[kept.size() - 2].run->entries.size())) {
      std::vector<Entry> newer = LiveEntries(kept.back());
      std::vector<Entry> older = LiveEntries(kept[kept.size() - 2]);
      std::vector<Entry> merged;
      merged.reserve(newer.size() + older.size());
      std::merge(std::make_move_iterator(older.begin()),
                 std::make_move_iterator(older.end()),
                 std::make_move_iterator(newer.begin()),
                 std::make_move_iterator(newer.end()),
                 std::back_inserter(merged), EntryOrder{});
      kept.pop_back();
      kept.back() = MakeSlot(std::move(merged));
    }
  }
  runs_ = std::move(kept);
}

void LifespanIndex::Add(const TuplePtr& t) {
  std::vector<Entry> entries;
  for (const Interval& iv : t->lifespan().intervals()) {
    entries.push_back(Entry{iv.begin, iv.end, t});
  }
  if (entries.empty()) return;
  // A lifespan's intervals are disjoint and ascending: already sorted.
  runs_.push_back(MakeSlot(std::move(entries)));
  Normalize();
}

void LifespanIndex::Remove(const TuplePtr& t) {
  bool compact = false;
  for (Slot& slot : runs_) {
    const std::vector<Entry>& entries = slot.run->entries;
    for (const Interval& iv : t->lifespan().intervals()) {
      const auto [first, last] =
          std::equal_range(entries.begin(), entries.end(),
                           Entry{iv.begin, iv.end, t}, EntryOrder{});
      for (auto it = first; it != last; ++it) {
        const size_t i = static_cast<size_t>(it - entries.begin());
        if (!slot.Live(i)) continue;
        // Copy-on-write: an index copy may still read this bitmap.
        if (!slot.dead) {
          slot.dead = std::make_shared<std::vector<bool>>(entries.size());
        } else if (slot.dead.use_count() > 1) {
          slot.dead = std::make_shared<std::vector<bool>>(*slot.dead);
        }
        (*slot.dead)[i] = true;
        ++slot.dead_count;
      }
    }
    if (2 * slot.dead_count > entries.size()) {
      slot = MakeSlot(LiveEntries(slot));
      compact = true;
    }
  }
  if (compact) Normalize();
}

void LifespanIndex::Rebuild(const Relation& rel) {
  std::vector<Entry> entries;
  for (const TuplePtr& t : rel.tuple_ptrs()) {
    for (const Interval& iv : t->lifespan().intervals()) {
      entries.push_back(Entry{iv.begin, iv.end, t});
    }
  }
  std::sort(entries.begin(), entries.end(), EntryOrder{});
  runs_.clear();
  if (!entries.empty()) runs_.push_back(MakeSlot(std::move(entries)));
}

size_t LifespanIndex::entry_count() const {
  size_t n = 0;
  for (const Slot& slot : runs_) n += slot.live_count();
  return n;
}

std::vector<TuplePtr> LifespanIndex::Probe(const Lifespan& window) const {
  std::vector<TuplePtr> out;
  if (runs_.empty() || window.empty()) return out;
  // A tuple can hit several times: multiple lifespan intervals, or several
  // window intervals touching one entry. Deduplicate by tuple identity.
  std::unordered_set<const Tuple*> seen;
  std::vector<size_t> hits;
  for (const Slot& slot : runs_) {
    const Run& run = *slot.run;
    hits.clear();
    for (const Interval& iv : window.intervals()) {
      run.Collect(0, 0, run.entries.size(), iv.begin, iv.end, &hits);
    }
    for (size_t i : hits) {
      if (!slot.Live(i)) continue;
      const TuplePtr& t = run.entries[i].tuple;
      if (seen.insert(t.get()).second) out.push_back(t);
    }
  }
  return out;
}

// --- ValueIndex --------------------------------------------------------------

void ValueIndex::Add(const TuplePtr& t) {
  if (attr_ >= t->arity()) {
    // Scheme drift (the attribute column is not where we were built to
    // look): degrade to the varying list, which every probe returns, so
    // the superset contract holds until Rebuild re-points the index.
    varying_.push_back(t);
    return;
  }
  const TemporalValue& v = t->value(attr_);
  if (v.IsConstant()) {
    buckets_.Insert(JoinKeyDigest(v.ConstantValue()), t);
    ++constant_count_;
  } else {
    varying_.push_back(t);
  }
}

void ValueIndex::Remove(const TuplePtr& t) {
  if (attr_ >= t->arity()) {
    std::erase(varying_, t);  // where drifted tuples were Add-ed
    return;
  }
  const TemporalValue& v = t->value(attr_);
  if (v.IsConstant()) {
    if (buckets_.Erase(JoinKeyDigest(v.ConstantValue()), t)) {
      --constant_count_;
    }
  } else {
    std::erase(varying_, t);
  }
}

void ValueIndex::Rebuild(const Relation& rel) {
  buckets_.clear();
  varying_.clear();
  constant_count_ = 0;
  for (const TuplePtr& t : rel.tuple_ptrs()) Add(t);
}

std::vector<TuplePtr> ValueIndex::Probe(const Value& key) const {
  std::vector<TuplePtr> out;
  buckets_.AnyOf(JoinKeyDigest(key), [&](const TuplePtr& t) {
    out.push_back(t);
    return false;
  });
  out.insert(out.end(), varying_.begin(), varying_.end());
  return out;
}

// --- RelationIndexes ---------------------------------------------------------

void RelationIndexes::EnableLifespan(const Relation& rel) {
  lifespan_.emplace();
  lifespan_->Rebuild(rel);
}

void RelationIndexes::EnableValue(const Relation& rel, std::string attr,
                                  size_t attr_index) {
  for (auto& [name, index] : values_) {
    if (name == attr) {
      index.set_attr_index(attr_index);
      index.Rebuild(rel);
      return;
    }
  }
  values_.emplace_back(std::move(attr), ValueIndex(attr_index));
  values_.back().second.Rebuild(rel);
}

const ValueIndex* RelationIndexes::value(std::string_view attr) const {
  for (const auto& [name, index] : values_) {
    if (name == attr) return &index;
  }
  return nullptr;
}

std::vector<std::string> RelationIndexes::value_attrs() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, index] : values_) out.push_back(name);
  return out;
}

void RelationIndexes::OnInsert(const TuplePtr& t) {
  if (lifespan_) lifespan_->Add(t);
  for (auto& [name, index] : values_) index.Add(t);
}

void RelationIndexes::OnRemove(const TuplePtr& t) {
  if (lifespan_) lifespan_->Remove(t);
  for (auto& [name, index] : values_) index.Remove(t);
}

void RelationIndexes::OnReplace(const TuplePtr& old_tuple,
                                const TuplePtr& new_tuple) {
  OnRemove(old_tuple);
  OnInsert(new_tuple);
}

Status RelationIndexes::Rebuild(const Relation& rel) {
  if (lifespan_) lifespan_->Rebuild(rel);
  for (auto& [name, index] : values_) {
    HRDM_ASSIGN_OR_RETURN(size_t idx, rel.scheme()->RequireIndex(name));
    index.set_attr_index(idx);
    index.Rebuild(rel);
  }
  return Status::OK();
}

}  // namespace hrdm::storage
