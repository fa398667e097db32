#ifndef HRDM_TESTS_TEST_SEEDS_H_
#define HRDM_TESTS_TEST_SEEDS_H_

// Reproducibility helper for the fuzz/property suites: every randomized
// test takes its seeds from a default list that can be overridden with a
// suite-specific env var holding comma-separated seeds, e.g.
//
//   HRDM_DML_FUZZ_SEEDS=31415 ctest -R DmlFuzz
//   HRDM_PLAN_SEEDS=7 ctest -R PlanParity
//   HRDM_JOIN_DIFF_SEEDS=42 ctest -R JoinDifferential
//   HRDM_PARALLEL_FUZZ_SEEDS=8 ctest -R ParallelDifferential
//   HRDM_CRASH_SEEDS=11 ctest -R CrashRecovery
//   HRDM_STORAGE_FUZZ_SEEDS=7 ctest -R StorageFuzz
//   HRDM_RECOVERY_DIFF_SEEDS=3 ctest -R RecoveryDifferential
//   HRDM_SESSION_FUZZ_SEEDS=5 ctest -R SessionFuzz
//   HRDM_CONCURRENCY_FUZZ_SEEDS=9 ctest -R ConcurrencyFuzz
//   HRDM_LIFESPAN_INDEX_SEEDS=6 ctest -R LifespanIndexTest.RandomHistories
//   HRDM_HASH_TRIE_SEEDS=4 ctest -R HashTrieTest
//
// (The crash harness also reads HRDM_CRASH_FSYNC=off|batched|always to
// pick the child's WAL fsync policy; default "always".)
//
// and every failure prints the seed (plus the override recipe) via
// SeedTrace, so a red property test is a one-command repro.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace hrdm::testing {

/// Seeds from `env_var` (comma-separated), or `defaults` when the variable
/// is unset/empty. Malformed entries are skipped; an override with no valid
/// entry falls back to the defaults rather than silently running nothing.
inline std::vector<uint64_t> SeedsFromEnv(const char* env_var,
                                          std::vector<uint64_t> defaults) {
  const char* raw = std::getenv(env_var);
  if (raw == nullptr || *raw == '\0') return defaults;
  std::vector<uint64_t> seeds;
  const std::string s(raw);
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = std::min(s.find(',', pos), s.size());
    const std::string token = s.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) continue;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') {
      seeds.push_back(static_cast<uint64_t>(v));
    }
  }
  return seeds.empty() ? defaults : seeds;
}

/// The SCOPED_TRACE message naming the failing seed and how to re-run it.
inline std::string SeedTrace(const char* env_var, uint64_t seed) {
  return "rng seed " + std::to_string(seed) + " (re-run with " +
         std::string(env_var) + "=" + std::to_string(seed) + ")";
}

}  // namespace hrdm::testing

#endif  // HRDM_TESTS_TEST_SEEDS_H_
