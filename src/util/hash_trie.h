#ifndef HRDM_UTIL_HASH_TRIE_H_
#define HRDM_UTIL_HASH_TRIE_H_

/// \file hash_trie.h
/// \brief A persistent multimap from 64-bit hashes to values: the shared
/// root behind `Relation`'s key map and `storage::ValueIndex`'s buckets.
///
/// The structure is a 32-way hash array mapped trie (Bagwell, "Ideal Hash
/// Trees", 2001) updated by path copying (Driscoll, Sarnak, Sleator &
/// Tarjan, "Making Data Structures Persistent", 1989):
///
///  * Level `d` branches on bits `[5d, 5d + 5)` of the hash, so a path is
///    at most 13 nodes long and about log32 n in practice. A node keeps,
///    in slot order, the entries that end at it and the children below
///    it, each array indexed by a 32-bit occupancy bitmap.
///  * One entry per distinct hash. Values stored under the same hash form
///    that entry's chain, in insertion order; `Replace` keeps a value's
///    place in it.
///  * The root node lives inline; every other node is shared. Copying a
///    trie copies the root's slots (at most 32 entries and child handles).
///    A mutation writes a shared node in place only while this trie owns
///    it alone (`use_count() == 1`) and copies it first otherwise, so a
///    copy taken earlier keeps answering as of the copy, and the first
///    update after a copy costs one path of node copies instead of a copy
///    of every entry. An empty trie allocates nothing.
///  * Erasure keeps the trie canonical: a child left with one entry and no
///    children folds back into its parent, an empty child is dropped.
///
/// Reads are const and never touch reference counts, so a published trie
/// can be read from any number of threads while the writer's copy moves on.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace hrdm::util {

template <typename V>
class HashTrie {
 public:
  /// \brief Calls `fn(const V&)` on each value stored under `hash`, in
  /// chain order, until one call returns true; returns whether one did.
  template <typename Fn>
  bool AnyOf(uint64_t hash, Fn&& fn) const {
    const Entry* e = Find(hash);
    if (e == nullptr) return false;
    if (fn(e->first)) return true;
    for (const V& v : e->more) {
      if (fn(v)) return true;
    }
    return false;
  }

  /// \brief Adds `value` under `hash`, at the end of the hash's chain.
  void Insert(uint64_t hash, V value) {
    Node* n = &root_;
    for (int shift = 0;; shift += kBits) {
      const uint32_t bit = Bit(hash, shift);
      if ((n->entry_map & bit) != 0) {
        const size_t at = Rank(n->entry_map, bit);
        Entry& e = n->entries[at];
        if (e.hash == hash) {
          e.more.push_back(std::move(value));
          return;
        }
        // Two hashes share this slot: push both one level down.
        std::shared_ptr<Node> child = Split(
            std::move(e), Entry{hash, std::move(value), {}}, shift + kBits);
        n->entries.erase(n->entries.begin() + static_cast<ptrdiff_t>(at));
        n->entry_map &= ~bit;
        n->children.insert(n->children.begin() + static_cast<ptrdiff_t>(
                                                     Rank(n->child_map, bit)),
                           std::move(child));
        n->child_map |= bit;
        return;
      }
      if ((n->child_map & bit) == 0) {
        n->entries.insert(
            n->entries.begin() +
                static_cast<ptrdiff_t>(Rank(n->entry_map, bit)),
            Entry{hash, std::move(value), {}});
        n->entry_map |= bit;
        return;
      }
      n = Own(n->children[Rank(n->child_map, bit)]);
    }
  }

  /// \brief Removes the first `value` stored under `hash`; false (and no
  /// node copied) when there is none.
  bool Erase(uint64_t hash, const V& value) {
    if (!AnyOf(hash, [&](const V& v) { return v == value; })) return false;
    EraseFrom(&root_, hash, value, 0);
    return true;
  }

  /// \brief Overwrites the first `old` stored under `hash` with `value`,
  /// in its chain position; false (and no node copied) when there is none.
  bool Replace(uint64_t hash, const V& old, V value) {
    if (!AnyOf(hash, [&](const V& v) { return v == old; })) return false;
    Node* n = &root_;
    for (int shift = 0;; shift += kBits) {
      const uint32_t bit = Bit(hash, shift);
      if ((n->entry_map & bit) != 0) {
        Entry& e = n->entries[Rank(n->entry_map, bit)];
        if (e.first == old) {
          e.first = std::move(value);
        } else {
          *std::find(e.more.begin(), e.more.end(), old) = std::move(value);
        }
        return true;
      }
      n = Own(n->children[Rank(n->child_map, bit)]);
    }
  }

  /// \brief Drops every value; shared nodes stay with their other owners.
  void clear() { root_ = Node(); }

 private:
  static constexpr int kBits = 5;

  struct Entry {
    uint64_t hash;
    V first;
    std::vector<V> more;  // empty (no allocation) unless hashes repeat
  };

  struct Node {
    uint32_t entry_map = 0;
    uint32_t child_map = 0;
    std::vector<Entry> entries;                    // in slot order
    std::vector<std::shared_ptr<Node>> children;   // in slot order
  };

  static uint32_t Bit(uint64_t hash, int shift) {
    return uint32_t{1} << ((hash >> shift) & 31);
  }

  /// Position of `bit`'s slot among the set bits of `map`.
  static size_t Rank(uint32_t map, uint32_t bit) {
    return static_cast<size_t>(std::popcount(map & (bit - 1)));
  }

  /// The node behind `p`, copied first unless this trie owns it alone.
  static Node* Own(std::shared_ptr<Node>& p) {
    if (p.use_count() > 1) p = std::make_shared<Node>(*p);
    return p.get();
  }

  /// A new subtree at level `shift` holding two entries with distinct
  /// hashes that agree on every bit above `shift`.
  static std::shared_ptr<Node> Split(Entry a, Entry b, int shift) {
    auto n = std::make_shared<Node>();
    const uint32_t bit_a = Bit(a.hash, shift);
    const uint32_t bit_b = Bit(b.hash, shift);
    if (bit_a == bit_b) {
      n->children.push_back(Split(std::move(a), std::move(b), shift + kBits));
      n->child_map = bit_a;
      return n;
    }
    if (bit_b < bit_a) std::swap(a, b);
    n->entry_map = bit_a | bit_b;
    n->entries.push_back(std::move(a));
    n->entries.push_back(std::move(b));
    return n;
  }

  const Entry* Find(uint64_t hash) const {
    const Node* n = &root_;
    for (int shift = 0;; shift += kBits) {
      const uint32_t bit = Bit(hash, shift);
      if ((n->entry_map & bit) != 0) {
        const Entry& e = n->entries[Rank(n->entry_map, bit)];
        return e.hash == hash ? &e : nullptr;
      }
      if ((n->child_map & bit) == 0) return nullptr;
      n = n->children[Rank(n->child_map, bit)].get();
    }
  }

  /// Removes `value` (known present) from the subtree at the owned node
  /// `n`, folding a child that is left with at most one entry and no
  /// children.
  static void EraseFrom(Node* n, uint64_t hash, const V& value, int shift) {
    const uint32_t bit = Bit(hash, shift);
    if ((n->entry_map & bit) != 0) {
      const size_t at = Rank(n->entry_map, bit);
      Entry& e = n->entries[at];
      if (!(e.first == value)) {
        e.more.erase(std::find(e.more.begin(), e.more.end(), value));
      } else if (!e.more.empty()) {
        e.first = std::move(e.more.front());
        e.more.erase(e.more.begin());
      } else {
        n->entries.erase(n->entries.begin() + static_cast<ptrdiff_t>(at));
        n->entry_map &= ~bit;
      }
      return;
    }
    const size_t at = Rank(n->child_map, bit);
    std::shared_ptr<Node>& child = n->children[at];
    EraseFrom(Own(child), hash, value, shift + kBits);
    if (!child->children.empty() || child->entries.size() > 1) return;
    if (child->entries.size() == 1) {
      // The lone entry sits in this node's slot `bit` (its hash agrees
      // with `hash` on every bit down to here).
      n->entries.insert(
          n->entries.begin() + static_cast<ptrdiff_t>(Rank(n->entry_map, bit)),
          std::move(child->entries.front()));
      n->entry_map |= bit;
    }
    n->children.erase(n->children.begin() + static_cast<ptrdiff_t>(at));
    n->child_map &= ~bit;
  }

  Node root_;
};

}  // namespace hrdm::util

#endif  // HRDM_UTIL_HASH_TRIE_H_
