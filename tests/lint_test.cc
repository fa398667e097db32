// Tests for the architecture linter's engine (tools/hrdm_lint_lib.h):
// one passing and one failing fixture per check class, plus the allowlist
// suppression and anti-rot paths. The fixtures are in-memory (path,
// content) pairs, so these tests pin the engine's behavior without
// touching the real tree — the CLI wrapper (tools/hrdm_lint.cc) is the
// same engine over the real files.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/hrdm_lint_lib.h"

namespace hrdm::lint {
namespace {

std::vector<Finding> RunFiles(const std::vector<SourceFile>& files,
                              const Options& options = Options()) {
  return Run(files, options);
}

/// Findings of one check, as "path:message" strings for readable failures.
std::vector<std::string> Of(const std::vector<Finding>& findings,
                            const std::string& check) {
  std::vector<std::string> out;
  for (const Finding& f : findings) {
    if (f.check == check) out.push_back(f.path + ": " + f.message);
  }
  return out;
}

bool Mentions(const std::vector<std::string>& messages,
              const std::string& needle) {
  for (const std::string& m : messages) {
    if (m.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// A minimal well-formed file: no style findings, no banned constructs.
SourceFile Clean(const std::string& path, const std::string& body) {
  return {path, body};
}

// --- layer-dag ---------------------------------------------------------------

TEST(LintLayerDagTest, DownwardIncludesPass) {
  const std::vector<SourceFile> files = {
      Clean("src/query/plan.cc",
            "#include \"storage/database.h\"\n#include \"util/status.h\"\n"),
      Clean("src/storage/database.h", "#include \"core/relation.h\"\n"),
      Clean("src/util/status.h", "int x;\n"),
      Clean("src/core/relation.h", "#include \"util/status.h\"\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "layer-dag").empty());
}

TEST(LintLayerDagTest, UpwardIncludeFails) {
  const std::vector<SourceFile> files = {
      Clean("src/storage/database.h", "#include \"query/plan.h\"\n"),
  };
  const auto found = Of(RunFiles(files), "layer-dag");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "'storage' must not include layer 'query'"));
}

TEST(LintLayerDagTest, SessionMayIncludeQueryDown) {
  const std::vector<SourceFile> files = {
      Clean("src/session/session.h",
            "#include \"query/executor.h\"\n"
            "#include \"storage/database.h\"\n"
            "#include \"util/status.h\"\n"),
      Clean("src/query/executor.h", "#include \"storage/database.h\"\n"),
      Clean("src/storage/database.h", "#include \"util/status.h\"\n"),
      Clean("src/util/status.h", "int x;\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "layer-dag").empty());
}

TEST(LintLayerDagTest, LowerLayersMustNotIncludeSession) {
  // session sits above query: neither query nor storage may reach up
  // into it.
  const std::vector<SourceFile> files = {
      Clean("src/query/executor.cc", "#include \"session/session.h\"\n"),
      Clean("src/storage/database.cc", "#include \"session/session.h\"\n"),
  };
  const auto found = Of(RunFiles(files), "layer-dag");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_TRUE(Mentions(found, "'query' must not include layer 'session'"));
  EXPECT_TRUE(Mentions(found, "'storage' must not include layer 'session'"));
}

TEST(LintLayerDagTest, SrcIncludingTestCodeFails) {
  const std::vector<SourceFile> files = {
      Clean("src/util/random.cc", "#include \"tests/test_seeds.h\"\n"),
  };
  const auto found = Of(RunFiles(files), "layer-dag");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "must not include test code"));
}

TEST(LintLayerDagTest, TestsMayIncludeEverything) {
  const std::vector<SourceFile> files = {
      Clean("tests/plan_test.cc",
            "#include \"query/plan.h\"\n#include \"test_seeds.h\"\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "layer-dag").empty());
}

TEST(LintLayerDagTest, FileCycleWithinAllowedLayersFails) {
  // util <-> core is an allowed *layer* pair, but an actual header cycle
  // between files is still an error.
  const std::vector<SourceFile> files = {
      Clean("src/util/pretty.h", "#include \"core/relation.h\"\n"),
      Clean("src/core/relation.h", "#include \"util/pretty.h\"\n"),
  };
  const auto found = Of(RunFiles(files), "layer-dag");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "include cycle"));
}

TEST(LintLayerDagTest, CommentedOutIncludeIgnored) {
  const std::vector<SourceFile> files = {
      Clean("src/storage/database.h", "// #include \"query/plan.h\"\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "layer-dag").empty());
}

// --- closed-enum-default -----------------------------------------------------

TEST(LintClosedEnumTest, DefaultArmOverClosedEnumFails) {
  const std::vector<SourceFile> files = {
      Clean("src/query/executor.cc",
            "void F(ExprKind k) {\n"
            "  switch (k) {\n"
            "    case ExprKind::kUnion:\n"
            "      break;\n"
            "    default:\n"
            "      break;\n"
            "  }\n"
            "}\n"),
  };
  const auto found = Of(RunFiles(files), "closed-enum-default");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "ExprKind"));
}

TEST(LintClosedEnumTest, ExhaustiveSwitchPasses) {
  const std::vector<SourceFile> files = {
      Clean("src/query/executor.cc",
            "void F(LsExprKind k) {\n"
            "  switch (k) {\n"
            "    case LsExprKind::kLiteral:\n"
            "    case LsExprKind::kWhen:\n"
            "      break;\n"
            "  }\n"
            "}\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "closed-enum-default").empty());
}

TEST(LintClosedEnumTest, OpenEnumMayKeepDefault) {
  const std::vector<SourceFile> files = {
      Clean("src/util/format.cc",
            "void F(SomeOpenEnum k) {\n"
            "  switch (k) {\n"
            "    case SomeOpenEnum::kA:\n"
            "      break;\n"
            "    default:\n"
            "      break;\n"
            "  }\n"
            "}\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "closed-enum-default").empty());
}

TEST(LintClosedEnumTest, NestedSwitchDefaultBelongsToInnerSwitch) {
  // The outer switch is over a closed enum and carries no default; the
  // inner one is over an open enum and may keep its default arm.
  const std::vector<SourceFile> files = {
      Clean("src/query/executor.cc",
            "void F(ExprKind k, int open) {\n"
            "  switch (k) {\n"
            "    case ExprKind::kUnion:\n"
            "      switch (open) {\n"
            "        default:\n"
            "          break;\n"
            "      }\n"
            "      break;\n"
            "  }\n"
            "}\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "closed-enum-default").empty());
}

// --- banned-construct --------------------------------------------------------

TEST(LintBannedTest, NakedNewFails) {
  const std::vector<SourceFile> files = {
      Clean("src/query/plan.cc", "void F() { auto* p = new int(3); }\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "naked new"));
}

TEST(LintBannedTest, MakeUniquePasses) {
  const std::vector<SourceFile> files = {
      Clean("src/query/plan.cc",
            "void F() { auto p = std::make_unique<int>(3); }\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

TEST(LintBannedTest, DeletedFunctionIsNotNakedDelete) {
  const std::vector<SourceFile> files = {
      Clean("src/util/mutex.h",
            "struct M { M(const M&) = delete; };\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

TEST(LintBannedTest, NakedDeleteFails) {
  const std::vector<SourceFile> files = {
      Clean("src/query/plan.cc", "void F(int* p) { delete p; }\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "naked delete"));
}

TEST(LintBannedTest, GlobalRngInTestsFails) {
  const std::vector<SourceFile> files = {
      Clean("tests/foo_test.cc", "int F() { return std::rand(); }\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "tests/test_seeds.h"));
}

TEST(LintBannedTest, StderrPrintfInLibraryFails) {
  const std::vector<SourceFile> files = {
      Clean("src/storage/wal.cc",
            "void F() { fprintf(stderr, \"boom\"); }\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "fprintf(stderr"));
}

TEST(LintBannedTest, StderrPrintfInTestsPasses) {
  const std::vector<SourceFile> files = {
      Clean("tests/foo_test.cc",
            "void F() { fprintf(stderr, \"debug\"); }\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

TEST(LintBannedTest, BlockingCallInsideWorkerTaskFails) {
  const std::vector<SourceFile> files = {
      Clean("src/query/plan.cc",
            "void F(util::ThreadPool& pool) {\n"
            "  pool.Submit([](size_t) { std::this_thread::sleep_for(d); });\n"
            "}\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "pure leaf kernels"));
}

TEST(LintBannedTest, PureLeafKernelTaskPasses) {
  const std::vector<SourceFile> files = {
      Clean("src/query/plan.cc",
            "void F(util::ThreadPool& pool) {\n"
            "  pool.Submit([](size_t id) { counters[id] += 1; });\n"
            "}\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

TEST(LintBannedTest, SubmitDeclarationIsNotATaskBody) {
  // A declaration has no lambda body inside the argument span, so the
  // blocking-call scan must not fire on parameter lists.
  const std::vector<SourceFile> files = {
      Clean("src/util/thread_pool.h",
            "std::future<void> Submit(std::function<void(size_t)> fn);\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

TEST(LintBannedTest, TupleAtATimeProtocolInQueryFails) {
  const std::vector<SourceFile> files = {
      Clean("src/query/a.h", "class ScalarCursor;\n"),
      Clean("src/query/b.h", "struct C { virtual int NextTuple() = 0; };\n"),
      Clean("src/query/c.h", "struct C { Result<TuplePtr> Next(); };\n"),
      Clean("src/query/d.cc",
            "Result<TuplePtr> Cursor::Next() { return {}; }\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 4u);
  EXPECT_TRUE(Mentions(found, "src/query/a.h: tuple-at-a-time"));
  EXPECT_TRUE(Mentions(found, "src/query/b.h: tuple-at-a-time"));
  EXPECT_TRUE(Mentions(found, "src/query/c.h: tuple-at-a-time"));
  EXPECT_TRUE(Mentions(found, "src/query/d.cc: tuple-at-a-time"));
}

TEST(LintBannedTest, BatchProtocolInQueryPasses) {
  // NextBatch, other Next-prefixed names, and the same constructs outside
  // src/query are all fine.
  const std::vector<SourceFile> files = {
      Clean("src/query/plan.h",
            "struct C {\n"
            "  virtual Result<TupleBatch*> NextBatch() = 0;\n"
            "  Result<TuplePtr> NextProbe();\n"
            "};\n"),
      Clean("src/util/random.h", "struct Rng { Result<TuplePtr> Next(); };\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

TEST(LintBannedTest, SecondBuildPathOrSizeMirrorInSrcFails) {
  const std::vector<SourceFile> files = {
      Clean("src/query/a.h", "struct IndexedBuildSide;\n"),
      Clean("src/query/b.cc", "void TryIndexFedEquiJoin();\n"),
      Clean("src/query/c.h",
            "struct S { size_t hash_builds_from_index; };\n"),
      Clean("src/storage/d.h", "void SetTupleCount(int n);\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 4u);
  EXPECT_TRUE(Mentions(found, "src/query/a.h: index-fed hash build"));
  EXPECT_TRUE(Mentions(found, "src/query/b.cc: index-fed hash build"));
  EXPECT_TRUE(Mentions(found, "src/query/c.h: index-fed hash build"));
  EXPECT_TRUE(Mentions(found, "src/storage/d.h: tuple-count mirror"));
}

TEST(LintBannedTest, OneBuildPathAndLiveSizesPass) {
  // Longer names that merely contain the banned words, the words in
  // comments, and the same names outside src/ are all fine.
  const std::vector<SourceFile> files = {
      Clean("src/query/plan.h",
            "// no IndexedBuildSide here\n"
            "struct HashBuild { size_t hash_builds_from_index_total; };\n"
            "size_t LiveSize(const Relation& r) { return r.size(); }\n"),
      Clean("tests/index_test.cc", "void SetTupleCount(int n);\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

TEST(LintBannedTest, RetiredEntryMapInVersionedRootFails) {
  const std::vector<SourceFile> files = {
      Clean("src/core/relation.h",
            "std::unordered_map<uint64_t, std::vector<size_t>> key_index_;\n"),
      Clean("src/storage/index.h",
            "std::unordered_map<uint64_t,\n"
            "                   std::vector<TuplePtr>> buckets_;\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_TRUE(Mentions(found, "src/core/relation.h: per-entry hash map"));
  EXPECT_TRUE(Mentions(found, "src/storage/index.h: per-entry hash map"));
}

TEST(LintBannedTest, HashTrieAndPerQueryTablesPass) {
  // The trie, other value shapes in versioned roots, and the same shape in
  // per-query tables (query, algebra) or outside src/ are all fine.
  const std::vector<SourceFile> files = {
      Clean("src/core/relation.h", "util::HashTrie<size_t> index_;\n"),
      Clean("src/storage/index.h",
            "std::unordered_map<uint64_t, std::vector<Value>> other_;\n"
            "// std::unordered_map<uint64_t, std::vector<size_t>> gone_;\n"),
      Clean("src/query/plan.h",
            "std::unordered_map<uint64_t, std::vector<size_t>> buckets_;\n"),
      Clean("src/algebra/aggregate.h",
            "std::unordered_map<uint64_t, std::vector<size_t>> buckets_;\n"),
      Clean("tests/index_test.cc",
            "std::unordered_map<uint64_t, std::vector<TuplePtr>> model;\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

TEST(LintBannedTest, LiveDatabaseReadInQueryFails) {
  const std::vector<SourceFile> files = {
      Clean("src/query/executor.h",
            "#include \"storage/database.h\"\n"
            "Result<Relation> Eval(const storage::Database& db);\n"),
  };
  const auto found = Of(RunFiles(files), "banned-construct");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_TRUE(Mentions(found, "includes storage/database.h"));
  EXPECT_TRUE(Mentions(found, "storage::Database in src/query"));
}

TEST(LintBannedTest, PinnedVersionReadInQueryPasses) {
  // The pinned version is the query layer's read surface; layers above it
  // (session) may still name the live Database.
  const std::vector<SourceFile> files = {
      Clean("src/query/executor.h",
            "#include \"storage/database_version.h\"\n"
            "Result<Relation> Eval(const storage::DatabaseVersion& v);\n"),
      Clean("src/session/session.h",
            "#include \"storage/database.h\"\n"
            "void Open(const storage::Database& db);\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "banned-construct").empty());
}

// --- doc-parity --------------------------------------------------------------

TEST(LintDocParityTest, UndocumentedCounterFails) {
  Options options;
  options.plan_header =
      "struct PlanStats {\n"
      "  uint64_t scans_full = 0;\n"
      "  uint64_t morsels_dispatched = 0;\n"
      "  void Reset();\n"
      "};\n";
  options.architecture_md = "Counters: `scans_full` only.\n";
  const auto found = Of(RunFiles({}, options), "doc-parity");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "morsels_dispatched"));
}

TEST(LintDocParityTest, FullyDocumentedCountersPass) {
  Options options;
  options.plan_header =
      "struct PlanStats {\n"
      "  uint64_t scans_full = 0;\n"
      "  uint64_t morsels_dispatched = 0;\n"
      "};\n";
  options.architecture_md =
      "Counters: `scans_full`, `morsels_dispatched`.\n";
  EXPECT_TRUE(Of(RunFiles({}, options), "doc-parity").empty());
}

// --- style -------------------------------------------------------------------

TEST(LintStyleTest, TrailingWhitespaceAndTabsFail) {
  const std::vector<SourceFile> files = {
      {"src/util/status.h", "int x; \n\tint y;\n"},
  };
  const auto found = Of(RunFiles(files), "style");
  EXPECT_TRUE(Mentions(found, "trailing whitespace"));
  EXPECT_TRUE(Mentions(found, "tab character"));
}

TEST(LintStyleTest, MissingFinalNewlineFails) {
  const std::vector<SourceFile> files = {
      {"src/util/status.h", "int x;"},
  };
  EXPECT_TRUE(
      Mentions(Of(RunFiles(files), "style"), "does not end with a newline"));
}

TEST(LintStyleTest, CrlfFails) {
  const std::vector<SourceFile> files = {
      {"src/util/status.h", "int x;\r\n"},
  };
  EXPECT_TRUE(Mentions(Of(RunFiles(files), "style"), "CRLF"));
}

TEST(LintStyleTest, CleanFilePasses) {
  const std::vector<SourceFile> files = {
      {"src/util/status.h", "int x;\nint y;\n"},
  };
  EXPECT_TRUE(Of(RunFiles(files), "style").empty());
}

// --- unreachable-api ---------------------------------------------------------

/// A header declaring `Live` and `Dead`, and the .cc defining both.
std::vector<SourceFile> ApiFixture() {
  return {
      Clean("src/util/api.h",
            "#ifndef API_H_\n#define API_H_\n"
            "namespace hrdm {\n"
            "/// Used by the query layer.\n"
            "int Live(int x);\n"
            "int Dead(int x);\n"
            "}  // namespace hrdm\n"
            "#endif\n"),
      Clean("src/util/api.cc",
            "#include \"util/api.h\"\n"
            "namespace hrdm {\n"
            "int Live(int x) { return x; }\n"
            "int Dead(int x) { return Live(x); }\n"
            "}  // namespace hrdm\n"),
      Clean("src/query/user.cc",
            "#include \"util/api.h\"\n"
            "namespace hrdm::query {\n"
            "int Use() { return Live(1); }\n"
            "}  // namespace hrdm::query\n"),
  };
}

TEST(LintUnreachableApiTest, FunctionWithoutCallerFails) {
  const auto found = Of(RunFiles(ApiFixture()), "unreachable-api");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "src/util/api.h: 'Dead'"));
}

TEST(LintUnreachableApiTest, TestCallerDoesNotCount) {
  std::vector<SourceFile> files = ApiFixture();
  files.push_back(Clean("tests/api_test.cc",
                        "#include \"util/api.h\"\n"
                        "int Probe() { return hrdm::Dead(2); }\n"));
  const auto found = Of(RunFiles(files), "unreachable-api");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "'Dead'"));
}

TEST(LintUnreachableApiTest, ReferenceOutsideTheLintedTreeCounts) {
  Options options;
  options.reference_files = {
      Clean("examples/demo.cpp",
            "#include \"util/api.h\"\n"
            "int main() { return hrdm::Dead(0); }\n"),
  };
  EXPECT_TRUE(
      Of(RunFiles(ApiFixture(), options), "unreachable-api").empty());
}

TEST(LintUnreachableApiTest, MacroBodyAndInitializerUsesCount) {
  const std::vector<SourceFile> files = {
      Clean("src/util/api.h",
            "int ViaMacro();\n"
            "int ViaInit();\n"),
      Clean("src/util/use.h",
            "#define CALL_IT() ViaMacro()\n"
            "inline const int kValue = ViaInit();\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "unreachable-api").empty());
}

TEST(LintUnreachableApiTest, ClassMembersPassWhenUsed) {
  // Constructors, destructors, operators, annotation macros and fields
  // are never checked; a member function is, and a call in any function
  // body keeps it alive.
  const std::vector<SourceFile> files = {
      Clean("src/util/box.h",
            "namespace hrdm {\n"
            "class HRDM_CAPABILITY(\"mutex\") Box {\n"
            " public:\n"
            "  explicit Box(int v) : v_(v) {}\n"
            "  ~Box();\n"
            "  bool operator==(const Box& o) const { return v_ == o.v_; }\n"
            "  int value() const { return v_; }\n"
            "  std::function<void(int)> hook;\n"
            "\n"
            " private:\n"
            "  int v_ HRDM_GUARDED_BY(mu_);\n"
            "};\n"
            "}  // namespace hrdm\n"),
      Clean("src/query/use.cc",
            "#include \"util/box.h\"\n"
            "int Read(const hrdm::Box& b) { return b.value(); }\n"),
  };
  EXPECT_TRUE(Of(RunFiles(files), "unreachable-api").empty());
}

TEST(LintUnreachableApiTest, UnusedMemberFunctionFails) {
  const std::vector<SourceFile> files = {
      Clean("src/util/box.h",
            "class Box {\n"
            " public:\n"
            "  int value() const { return 1; }\n"
            "  int Spare() const;\n"
            "};\n"),
      Clean("src/util/box.cc",
            "int Box::Spare() const { return value(); }\n"),
  };
  const auto found = Of(RunFiles(files), "unreachable-api");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "'Spare'"));
}

TEST(LintUnreachableApiTest, AllowlistEntryWithReasonSuppresses) {
  Options options;
  options.allowlist =
      "unreachable-api|src/util/api.h|int Dead(|kept as the paper's "
      "definition\n";
  const auto findings = RunFiles(ApiFixture(), options);
  EXPECT_TRUE(Of(findings, "unreachable-api").empty());
  EXPECT_TRUE(Of(findings, "allowlist").empty());  // entry was used
}

// --- allowlist ---------------------------------------------------------------

TEST(LintAllowlistTest, MatchingEntrySuppressesFinding) {
  Options options;
  options.allowlist =
      "# justified leak\n"
      "banned-construct|src/util/pool.cc|new Pool|intentional leak\n";
  const std::vector<SourceFile> files = {
      Clean("src/util/pool.cc", "Pool* p = new Pool(0);\n"),
  };
  const auto findings = RunFiles(files, options);
  EXPECT_TRUE(Of(findings, "banned-construct").empty());
  EXPECT_TRUE(Of(findings, "allowlist").empty());  // entry was used
}

TEST(LintAllowlistTest, UnusedEntryIsItselfAFinding) {
  Options options;
  options.allowlist =
      "banned-construct|src/util/pool.cc|new Pool|no longer present\n";
  const auto found = Of(RunFiles({}, options), "allowlist");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "unused allowlist entry"));
}

TEST(LintAllowlistTest, MalformedEntryIsAFinding) {
  Options options;
  options.allowlist = "banned-construct|missing-fields\n";
  const auto found = Of(RunFiles({}, options), "allowlist");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(Mentions(found, "malformed entry"));
}

TEST(LintAllowlistTest, EntryScopedToOtherPathDoesNotSuppress) {
  Options options;
  options.allowlist =
      "banned-construct|src/util/other.cc|new Pool|wrong file\n";
  const std::vector<SourceFile> files = {
      Clean("src/util/pool.cc", "Pool* p = new Pool(0);\n"),
  };
  const auto findings = RunFiles(files, options);
  EXPECT_EQ(Of(findings, "banned-construct").size(), 1u);
  // ...and the entry is unused, which is reported too.
  EXPECT_EQ(Of(findings, "allowlist").size(), 1u);
}

// --- driver ------------------------------------------------------------------

TEST(LintRunTest, FindingsSortedByPathAndLine) {
  const std::vector<SourceFile> files = {
      {"src/util/b.h", "int x;"},
      {"src/util/a.h", "int y;"},
  };
  const auto findings = RunFiles(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].path, "src/util/a.h");
  EXPECT_EQ(findings[1].path, "src/util/b.h");
}

}  // namespace
}  // namespace hrdm::lint
