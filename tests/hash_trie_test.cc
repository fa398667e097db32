// Tests for util::HashTrie, the persistent hash multimap behind Relation's
// key map and ValueIndex's buckets: random histories against an
// std::unordered_map model, with forced collisions, and copies taken
// mid-history that must keep answering as of the copy.

#include "util/hash_trie.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "test_seeds.h"
#include "util/random.h"

namespace hrdm::util {
namespace {

constexpr char kHashTrieSeedEnv[] = "HRDM_HASH_TRIE_SEEDS";

using Model = std::unordered_map<uint64_t, std::vector<int>>;

/// The hash of user key `k`, built to collide: keys 4m..4m+3 share one
/// full hash (a chain), and every fifth key differs from the others of its
/// family only in the top four bits (a path as deep as the trie goes).
uint64_t HashOf(uint64_t k) {
  if (k % 5 == 0) return ((k % 16) << 60) | 0x0123456789ABCDEULL;
  uint64_t h = (k / 4) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  return h * 0xBF58476D1CE4E5B9ULL;
}

std::vector<int> ChainOf(const HashTrie<int>& trie, uint64_t hash) {
  std::vector<int> out;
  trie.AnyOf(hash, [&](int v) {
    out.push_back(v);
    return false;
  });
  return out;
}

/// Every hash ever used answers exactly the model's chain (empty if gone).
void ExpectMatches(const HashTrie<int>& trie, const Model& model,
                   const std::vector<uint64_t>& hashes) {
  for (uint64_t h : hashes) {
    auto it = model.find(h);
    const std::vector<int> want = it == model.end() ? std::vector<int>{}
                                                    : it->second;
    ASSERT_EQ(ChainOf(trie, h), want) << "hash " << h;
  }
}

TEST(HashTrieTest, RandomOpsMatchUnorderedMap) {
  for (uint64_t seed :
       hrdm::testing::SeedsFromEnv(kHashTrieSeedEnv, {1, 2, 3})) {
    SCOPED_TRACE(hrdm::testing::SeedTrace(kHashTrieSeedEnv, seed));
    Rng rng(seed);
    HashTrie<int> trie;
    Model model;
    std::vector<uint64_t> hashes;  // every hash ever inserted
    struct Copy {
      HashTrie<int> trie;
      Model model;
    };
    std::vector<Copy> copies;
    int next_value = 0;
    // Grow, churn, then drain, so nodes split, fold and empty out.
    for (int phase = 0; phase < 3; ++phase) {
      for (int step = 0; step < 3000; ++step) {
        const double insert_share = phase == 0 ? 0.8 : phase == 1 ? 0.4 : 0.05;
        const double roll = rng.NextDouble();
        if (roll < insert_share || model.empty()) {
          const uint64_t h = HashOf(static_cast<uint64_t>(rng.Uniform(0, 999)));
          trie.Insert(h, next_value);
          model[h].push_back(next_value++);
          hashes.push_back(h);
        } else {
          // Pick a stored value (or, sometimes, one that is not stored).
          const uint64_t h = hashes[rng.Index(hashes.size())];
          auto it = model.find(h);
          const bool present = it != model.end();
          const int v = present && !rng.Chance(0.1)
                            ? it->second[rng.Index(it->second.size())]
                            : -1 - static_cast<int>(rng.Uniform(0, 9));
          if (rng.Chance(0.7)) {
            EXPECT_EQ(trie.Erase(h, v), v >= 0);
            if (v >= 0) {
              std::erase(it->second, v);
              if (it->second.empty()) model.erase(it);
            }
          } else {
            EXPECT_EQ(trie.Replace(h, v, next_value), v >= 0);
            if (v >= 0) {
              *std::find(it->second.begin(), it->second.end(), v) =
                  next_value;
            }
            ++next_value;
          }
        }
        if (step % 500 == 0) copies.push_back(Copy{trie, model});
        if (step % 250 == 0) ExpectMatches(trie, model, hashes);
      }
    }
    ExpectMatches(trie, model, hashes);
    for (const Copy& c : copies) ExpectMatches(c.trie, c.model, hashes);
    trie.clear();
    EXPECT_TRUE(ChainOf(trie, hashes.front()).empty());
    ExpectMatches(copies.back().trie, copies.back().model, hashes);
  }
}

TEST(HashTrieTest, AnyOfStopsAtTheFirstMatch) {
  HashTrie<int> trie;
  for (int v = 0; v < 5; ++v) trie.Insert(7, v);
  int visited = 0;
  EXPECT_TRUE(trie.AnyOf(7, [&](int v) {
    ++visited;
    return v == 2;
  }));
  EXPECT_EQ(visited, 3);
  EXPECT_FALSE(trie.AnyOf(8, [](int) { return true; }));
}

}  // namespace
}  // namespace hrdm::util
