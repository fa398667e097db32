// Architecture linter (the CI lint gate):
//
//   hrdm_lint [REPO_ROOT]
//
// Walks `src/**` and `tests/**` (every .h/.cc file) under REPO_ROOT
// (default: the current directory), loads `tools/lint_allowlist.txt`,
// `docs/ARCHITECTURE.md` and `src/query/plan.h`, reads the C++ files under
// `examples/`, `tools/`, `bench/` and `perfbench/` as reference-only
// sources (their uses count, they are not linted), and runs every check in
// tools/hrdm_lint_lib.h: layer-DAG include direction + cycles, closed-enum
// switch discipline, banned constructs, PlanStats/doc parity, whitespace
// hygiene, and unreachable header API. Exit status is the number of findings (capped at
// 255), so CI fails on any violation. See the library header for the
// check catalog and docs/ARCHITECTURE.md "Static analysis & invariants"
// for the rationale.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tools/hrdm_lint_lib.h"

namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Appends every file under `root/dir` whose extension is in `exts`, as a
/// repo-relative (path, content) pair.
void Collect(const fs::path& root, const char* dir,
             std::initializer_list<std::string_view> exts,
             std::vector<hrdm::lint::SourceFile>* out) {
  for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (std::find(exts.begin(), exts.end(), ext) == exts.end()) continue;
    out->push_back({fs::relative(entry.path(), root).generic_string(),
                    ReadFile(entry.path())});
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [REPO_ROOT]\n", argv[0]);
    return 64;
  }
  const fs::path root = argc == 2 ? fs::path(argv[1]) : fs::current_path();

  std::vector<hrdm::lint::SourceFile> files;
  for (const char* dir : {"src", "tests"}) {
    if (!fs::exists(root / dir)) {
      std::fprintf(stderr, "hrdm_lint: missing directory %s\n",
                   (root / dir).string().c_str());
      return 64;
    }
    Collect(root, dir, {".h", ".cc"}, &files);
  }
  std::sort(files.begin(), files.end(),
            [](const hrdm::lint::SourceFile& a,
               const hrdm::lint::SourceFile& b) { return a.path < b.path; });

  hrdm::lint::Options options;
  for (const char* dir : {"examples", "tools", "bench", "perfbench"}) {
    if (fs::exists(root / dir)) {
      Collect(root, dir, {".h", ".cc", ".cpp"}, &options.reference_files);
    }
  }
  options.allowlist = ReadFile(root / "tools" / "lint_allowlist.txt");
  options.architecture_md = ReadFile(root / "docs" / "ARCHITECTURE.md");
  options.plan_header = ReadFile(root / "src" / "query" / "plan.h");

  const std::vector<hrdm::lint::Finding> findings =
      hrdm::lint::Run(files, options);
  for (const hrdm::lint::Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.path.c_str(), f.line,
                 f.check.c_str(), f.message.c_str());
  }
  std::printf("hrdm_lint: %zu file(s), %zu finding(s)\n", files.size(),
              findings.size());
  return findings.size() > 255 ? 255 : static_cast<int>(findings.size());
}
