#ifndef HRDM_TOOLS_HRDM_LINT_LIB_H_
#define HRDM_TOOLS_HRDM_LINT_LIB_H_

/// \file hrdm_lint_lib.h
/// \brief The architecture linter's engine (the CI lint gate).
///
/// `hrdm_lint` enforces, at "compile time" for the repository itself, the
/// conventions that the engine's correctness rests on but that no compiler
/// flag checks. It is deliberately dependency-free — a lightweight lexical
/// pass over `src/**` and `tests/**` in the same spirit as
/// `tools/hrql_check.cc` — so it builds and runs everywhere the library
/// does, with no clang tooling required. The checks:
///
///  * **layer-dag** — `#include` edges may only point downward through the
///    layer DAG (`util`/`core` ← `classic`/`constraints`/`algebra` ←
///    `storage` ← `query` ← `session`/`workload`; `tests` sit on top), no
///    cycles at file granularity, and no test code reachable from `src/`.
///  * **closed-enum-default** — a `switch` over a *closed* enum
///    (`ExprKind`, `LsExprKind`, `OpKind`, `AggregateFn`, `JoinStrategy`,
///    `AccessPath`, `SetOpKind`, `FsyncPolicy`) must not carry a
///    `default:` arm, so `-Wswitch` flags every new variant at every
///    dispatch site the day it is added.
///  * **banned-construct** — naked `new`/`delete` (ownership goes through
///    `std::make_unique`/`std::make_shared`; justified leaks go on the
///    allowlist), `std::rand`/`srand`/`std::random_device` (all fuzz must
///    route through the seed-reproducible `tests/test_seeds.h` harness),
///    `fprintf(stderr, ...)` outside `bench/`+`tools/` (library code
///    reports through `util::Status`), and blocking calls (locks, sleeps,
///    file I/O) inside worker-pool task lambdas (`Submit`/
///    `ParallelMorsels` bodies must stay pure leaf kernels — that
///    invariant is why the shared pool cannot deadlock). In `src/query`
///    additionally: any second, tuple-at-a-time cursor protocol
///    (`ScalarCursor`, `NextTuple`, a `Result<TuplePtr> Next(` member —
///    `NextBatch()` is the one protocol), and any read against the live
///    database (`storage::Database`, `#include "storage/database.h"` — the
///    read surface is a pinned `storage::DatabaseVersion`). Anywhere in
///    `src/`: a second hash-join build path (`IndexedBuildSide`,
///    `TryIndexFedEquiJoin`, `hash_builds_from_index` — the hash join
///    drains and digests its build cursor) and a mirrored relation size
///    (`SetTupleCount` — the planner reads `Relation::size()` through its
///    resolver). In `src/core` and `src/storage`, whose relation and index
///    roots database versions share: the retired per-entry maps
///    `std::unordered_map<uint64_t, std::vector<size_t>>` and
///    `std::unordered_map<uint64_t, std::vector<TuplePtr>>`, which a
///    pinned commit had to copy entry by entry (`util::HashTrie` copies
///    one path). Per-query hash tables in `src/query` and `src/algebra`
///    are never shared and keep the shape.
///  * **doc-parity** — every `PlanStats` counter field must be mentioned
///    in `docs/ARCHITECTURE.md` (the EXPLAIN surface is documentation;
///    an undocumented counter is a doc bug, exactly like an undocumented
///    HRQL operator under `hrql_check`).
///  * **style** — no tabs, no trailing whitespace, no CRLF, every file
///    ends in exactly one newline (the locally-enforceable slice of the
///    `.clang-format` contract, with zero tool dependencies).
///  * **unreachable-api** — every function declared in a `src/**` header
///    needs a reference outside its declaration and definition, in `src/`
///    or in the reference-only trees (`examples/`, `tools/`, `bench/`,
///    `perfbench/`: read for uses, never linted). Tests do not count: an
///    API only a test calls is dead surface. Lexical rules: a
///    *declarator* is the name before the first top-level `(` of a
///    declaration statement at namespace or class scope (no `=` before
///    it); every other occurrence of the name, in a function body, an
///    initializer or a macro definition, is a *reference*. Constructors,
///    destructors, operators, keywords and ALL_CAPS macros are never
///    checked. Names match across files, so an overload or a same-named
///    member anywhere keeps a function alive. Resolve a finding by
///    deleting the function, moving a test-only helper into its test, or
///    an allowlist entry naming the paper section or reason it stays.
///
/// Findings can be suppressed through an allowlist (one entry per line:
/// `check|path|line-substring|reason`); entries that suppress nothing are
/// themselves findings, so the allowlist can never rot.
///
/// The engine operates on in-memory (path, content) pairs so
/// `tests/lint_test.cc` can drive every check over fixture snippets; the
/// CLI wrapper (`tools/hrdm_lint.cc`) walks the real tree.

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace hrdm::lint {

struct SourceFile {
  std::string path;     // repo-relative, e.g. "src/query/plan.cc"
  std::string content;  // full file text
};

struct Finding {
  std::string path;
  size_t line = 0;  // 1-based; 0 = whole file
  std::string check;
  std::string message;
  std::string line_text;  // the offending line (allowlist match target)
};

/// One allowlist entry: `check|path|line-substring|reason`. An empty
/// line-substring matches any line of the file.
struct AllowEntry {
  std::string check;
  std::string path;
  std::string pattern;
  std::string reason;
  bool used = false;
};

struct Options {
  /// Content of docs/ARCHITECTURE.md; empty disables the doc-parity check.
  std::string architecture_md;
  /// Content of src/query/plan.h (PlanStats source); empty disables
  /// doc-parity.
  std::string plan_header;
  /// Allowlist file text (see AllowEntry); empty = no suppressions.
  std::string allowlist;
  /// Files outside the linted tree (examples/, tools/, bench/,
  /// perfbench/) whose uses count as references for unreachable-api;
  /// they are read, not linted.
  std::vector<SourceFile> reference_files;
};

namespace internal {

inline size_t LineOf(std::string_view text, size_t pos) {
  return 1 + static_cast<size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos),
                            '\n'));
}

inline std::string LineTextAt(std::string_view text, size_t pos) {
  size_t b = text.rfind('\n', pos);
  b = (b == std::string_view::npos) ? 0 : b + 1;
  size_t e = text.find('\n', pos);
  if (e == std::string_view::npos) e = text.size();
  std::string out(text.substr(b, e - b));
  if (!out.empty() && out.back() == '\r') out.pop_back();
  return out;
}

/// Returns `content` with comments and string/char literals blanked out
/// (newlines preserved, so positions keep their line numbers). Handles
/// //, /*...*/, "..." with escapes, '...' and R"delim(...)delim".
inline std::string StripCommentsAndLiterals(std::string_view content) {
  std::string out;
  out.reserve(content.size());
  const size_t n = content.size();
  size_t i = 0;
  auto blank = [&out](char c) { out.push_back(c == '\n' ? '\n' : ' '); };
  while (i < n) {
    const char c = content[i];
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      while (i < n && content[i] != '\n') blank(content[i++]);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      blank(content[i++]);
      blank(content[i++]);
      while (i < n && !(content[i] == '*' && i + 1 < n &&
                        content[i + 1] == '/')) {
        blank(content[i++]);
      }
      if (i < n) {
        blank(content[i++]);
        blank(content[i++]);
      }
      continue;
    }
    if (c == 'R' && i + 1 < n && content[i + 1] == '"' &&
        (i == 0 || (std::isalnum(static_cast<unsigned char>(content[i - 1])) ==
                        0 &&
                    content[i - 1] != '_'))) {
      size_t d = i + 2;
      while (d < n && content[d] != '(') ++d;
      const std::string close =
          ")" + std::string(content.substr(i + 2, d - (i + 2))) + "\"";
      const size_t end = content.find(close, d);
      const size_t stop = (end == std::string_view::npos)
                              ? n
                              : end + close.size();
      while (i < stop) blank(content[i++]);
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      blank(content[i++]);
      while (i < n && content[i] != quote) {
        if (content[i] == '\\' && i + 1 < n) blank(content[i++]);
        blank(content[i++]);
      }
      if (i < n) blank(content[i++]);
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `text[pos..pos+word)` equals `word` at identifier boundaries.
inline bool WordAt(std::string_view text, size_t pos, std::string_view word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsIdentChar(text[pos - 1])) return false;
  const size_t end = pos + word.size();
  return end >= text.size() || !IsIdentChar(text[end]);
}

/// Position just past the brace/paren that matches the opener at `open`
/// (which must index a `(` or `{`), or npos when unbalanced.
inline size_t MatchSpan(std::string_view text, size_t open) {
  const char o = text[open];
  const char c = o == '(' ? ')' : '}';
  size_t depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == o) ++depth;
    if (text[i] == c && --depth == 0) return i + 1;
  }
  return std::string_view::npos;
}

/// Layer of a repo path: the directory under src/ ("util", "query", ...),
/// "tests" for tests/, or "" for paths outside the layered tree.
inline std::string LayerOf(std::string_view path) {
  if (path.rfind("tests/", 0) == 0) return "tests";
  if (path.rfind("src/", 0) != 0) return "";
  const std::string_view rest = path.substr(4);
  const size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return "";
  return std::string(rest.substr(0, slash));
}

/// The layer DAG: which layers each layer's includes may point at.
/// `util` and `core` form the joint bottom (util/pretty.h renders core
/// relations); `classic`, `constraints` and `algebra` sit directly on it;
/// `storage` consumes `algebra` (join digests for value indexes) and
/// `constraints`; `query` consumes `storage` down; `session` (reader
/// sessions over pinned versions) consumes `query` down; `session` and
/// `workload` are joint tops of `src/`; `tests` may reach everything.
inline const std::map<std::string, std::set<std::string>>& LayerDag() {
  static const std::map<std::string, std::set<std::string>> dag = {
      {"util", {"util", "core"}},
      {"core", {"core", "util"}},
      {"classic", {"classic", "core", "util"}},
      {"constraints", {"constraints", "core", "util"}},
      {"algebra", {"algebra", "core", "util"}},
      {"storage", {"storage", "algebra", "constraints", "core", "util"}},
      {"query", {"query", "storage", "algebra", "constraints", "core",
                 "util"}},
      {"session", {"session", "query", "storage", "algebra", "constraints",
                   "core", "util"}},
      {"workload", {"workload", "query", "storage", "algebra", "constraints",
                    "core", "util"}},
      {"tests", {"tests", "workload", "session", "query", "storage",
                 "algebra", "constraints", "classic", "core", "util"}},
  };
  return dag;
}

/// Enums whose variant sets are closed: every switch must enumerate them
/// so `-Wswitch` turns a new variant into a warning at every dispatch
/// site. Kept in sync with the header that declares each enum.
inline const std::set<std::string>& ClosedEnums() {
  static const std::set<std::string> enums = {
      "ExprKind",     // query/ast.h    — relation-sorted AST nodes
      "LsExprKind",   // query/ast.h    — lifespan-sorted AST nodes
      "OpKind",       // storage/changelog.h — changelog/WAL record kinds
      "AggregateFn",  // algebra/aggregate.h
      "JoinStrategy", // query/optimizer.h
      "AccessPath",   // query/optimizer.h
      "SetOpKind",    // algebra/setops.h
      "FsyncPolicy",  // storage/wal.h
  };
  return enums;
}

struct IncludeRef {
  std::string target;  // resolved repo-relative path ("" if unresolvable)
  std::string raw;     // the literal include text
  size_t line = 0;
};

/// Quoted includes of one file (raw content, parsed line-wise so literal
/// stripping cannot blank the quoted path and commented-out includes are
/// ignored), resolved repo-relative: `"query/plan.h"` → `src/query/plan.h`;
/// a bare name in a tests/ file (`"test_seeds.h"`) → `tests/test_seeds.h`.
inline std::vector<IncludeRef> QuotedIncludes(std::string_view path,
                                              std::string_view raw_content) {
  std::vector<IncludeRef> out;
  size_t line = 0;
  size_t cursor = 0;
  while (cursor <= raw_content.size()) {
    const size_t nl = raw_content.find('\n', cursor);
    const std::string_view lv = raw_content.substr(
        cursor, (nl == std::string_view::npos ? raw_content.size() : nl) -
                    cursor);
    cursor = nl == std::string_view::npos ? raw_content.size() + 1 : nl + 1;
    ++line;
    size_t pos = lv.find_first_not_of(" \t");
    if (pos == std::string_view::npos || lv[pos] != '#') continue;
    pos = lv.find_first_not_of(" \t", pos + 1);
    if (pos == std::string_view::npos ||
        lv.compare(pos, 7, "include") != 0) {
      continue;
    }
    pos = lv.find('"', pos + 7);
    if (pos == std::string_view::npos) continue;
    const size_t end = lv.find('"', pos + 1);
    if (end == std::string_view::npos) continue;
    const std::string inc(lv.substr(pos + 1, end - pos - 1));
    std::string resolved;
    const std::string layer = LayerOf("src/" + inc);
    if (!layer.empty() && LayerDag().count(layer) > 0) {
      resolved = "src/" + inc;  // the src include root (-Isrc)
    } else if (inc.rfind("tests/", 0) == 0) {
      resolved = inc;
    } else if (inc.rfind("tools/", 0) == 0) {
      resolved = inc;
    } else if (inc.find('/') == std::string_view::npos &&
               LayerOf(path) == "tests") {
      resolved = "tests/" + inc;  // sibling include inside tests/
    }
    out.push_back({std::move(resolved), inc, line});
  }
  return out;
}

/// Names that precede a `(` without being a function declarator.
inline bool IsNonFunctionName(std::string_view name) {
  static const std::set<std::string_view> kWords = {
      "alignas", "alignof",  "auto",   "bool",   "char",   "decltype",
      "defined", "delete",   "double", "float",  "for",    "if",
      "int",     "long",     "new",    "noexcept", "requires",
      "return",  "short",    "signed", "sizeof", "static_assert",
      "switch",  "throw",    "typeid", "unsigned", "void", "while",
  };
  if (kWords.count(name) > 0 || name.rfind("__", 0) == 0) return true;
  // ALL_CAPS names are macros (HRDM_GUARDED_BY(mu_) after a field).
  return std::none_of(name.begin(), name.end(), [](char c) {
    return std::islower(static_cast<unsigned char>(c)) != 0;
  });
}

/// Adds every identifier in `text[b, e)` to `out`.
inline void AddIdentifiers(std::string_view text, size_t b, size_t e,
                           std::set<std::string>* out) {
  size_t i = b;
  while (i < e) {
    if (!IsIdentChar(text[i])) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < e && IsIdentChar(text[i])) ++i;
    if (std::isdigit(static_cast<unsigned char>(text[start])) == 0) {
      out->emplace(text.substr(start, i - start));
    }
  }
}

/// The declarators and references of one comment- and literal-stripped
/// file (see the unreachable-api check).
struct ApiScan {
  /// Function names declared or defined at namespace/class scope, with
  /// the offset of the name.
  std::vector<std::pair<std::string, size_t>> declarators;
  /// Names of classes defined in the file (their constructors).
  std::set<std::string> class_names;
  /// Every other identifier occurrence.
  std::set<std::string> references;
};

/// Handles one declaration statement `code[b, e)` at namespace or class
/// scope: records its declarator, if any, and every other identifier as a
/// reference. Returns whether the statement heads a function (so a `{`
/// after it opens a function body, which ends the statement).
inline bool ScanDeclaration(std::string_view code, size_t b, size_t e,
                            ApiScan* scan) {
  const std::string_view stmt = code.substr(b, e - b);
  const size_t paren = stmt.find('(');
  bool is_function = false;
  size_t name_begin = std::string_view::npos;
  size_t name_end = std::string_view::npos;
  bool is_operator = false;
  for (size_t p = 0; (p = stmt.find("operator", p)) != std::string_view::npos;
       p += 8) {
    if (WordAt(stmt, p, "operator")) is_operator = true;
  }
  if (is_operator) {
    is_function = true;
  } else if (paren != std::string_view::npos &&
             stmt.substr(0, paren).find('=') == std::string_view::npos) {
    is_function = true;
    size_t ne = paren;
    while (ne > 0 && std::isspace(static_cast<unsigned char>(stmt[ne - 1])) !=
                         0) {
      --ne;
    }
    size_t nb = ne;
    while (nb > 0 && IsIdentChar(stmt[nb - 1])) --nb;
    const std::string_view name = stmt.substr(nb, ne - nb);
    if (!name.empty() &&
        std::isdigit(static_cast<unsigned char>(name[0])) == 0 &&
        (nb == 0 || stmt[nb - 1] != '~') && !IsNonFunctionName(name)) {
      name_begin = nb;
      name_end = ne;
      scan->declarators.emplace_back(std::string(name), b + nb);
    }
  }
  if (name_begin == std::string_view::npos) {
    AddIdentifiers(code, b, e, &scan->references);
  } else {
    AddIdentifiers(code, b, b + name_begin, &scan->references);
    AddIdentifiers(code, b + name_end, e, &scan->references);
  }
  return is_function;
}

/// Whether a `{` after the statement head `head` opens a namespace or a
/// class body (whose declarations are scanned in turn) rather than a
/// function body or an initializer (skipped as references). A class
/// head's name goes to `*name`.
inline bool OpensScope(std::string_view head, std::string* name) {
  // Skip access labels and a template parameter list.
  size_t p = 0;
  while (true) {
    while (p < head.size() &&
           std::isspace(static_cast<unsigned char>(head[p])) != 0) {
      ++p;
    }
    bool skipped = false;
    for (std::string_view label : {"public", "private", "protected"}) {
      if (WordAt(head, p, label)) {
        const size_t colon = head.find(':', p);
        if (colon != std::string_view::npos) {
          p = colon + 1;
          skipped = true;
        }
      }
    }
    if (WordAt(head, p, "template")) {
      const size_t open = head.find('<', p);
      if (open == std::string_view::npos) break;
      size_t depth = 0;
      size_t q = open;
      for (; q < head.size(); ++q) {
        if (head[q] == '<') ++depth;
        if (head[q] == '>' && --depth == 0) break;
      }
      p = q + 1;
      skipped = true;
    }
    if (!skipped) break;
  }
  if (WordAt(head, p, "inline")) {
    const size_t q = head.find_first_not_of(" \t\n", p + 6);
    if (q != std::string_view::npos && WordAt(head, q, "namespace")) p = q;
  }
  if (WordAt(head, p, "namespace") ||
      (WordAt(head, p, "extern") && head.find('(') == std::string_view::npos)) {
    return true;
  }
  for (std::string_view keyword : {"class", "struct", "union"}) {
    if (!WordAt(head, p, keyword)) continue;
    // The class name is the last identifier before a base clause or a
    // template-argument list.
    std::string_view rest = head.substr(p + keyword.size());
    for (size_t q = 0; q < rest.size(); ++q) {
      const bool single_colon =
          rest[q] == ':' && (q + 1 >= rest.size() || rest[q + 1] != ':') &&
          (q == 0 || rest[q - 1] != ':');
      if (single_colon || rest[q] == '<') {
        rest = rest.substr(0, q);
        break;
      }
    }
    size_t e = rest.size();
    while (e > 0) {
      while (e > 0 && !IsIdentChar(rest[e - 1])) --e;
      size_t b = e;
      while (b > 0 && IsIdentChar(rest[b - 1])) --b;
      const std::string_view id = rest.substr(b, e - b);
      if (!id.empty() && id != "final") {
        *name = std::string(id);
        break;
      }
      e = b;
    }
    return true;
  }
  return false;
}

/// Splits one stripped file into declarators and references.
inline ApiScan ScanApi(std::string_view stripped) {
  ApiScan scan;
  std::string code(stripped);
  // Preprocessor lines (with their continuations) declare nothing, but a
  // macro body's identifiers are uses.
  for (size_t i = 0; i < code.size();) {
    size_t line_end = code.find('\n', i);
    if (line_end == std::string::npos) line_end = code.size();
    const size_t first = code.find_first_not_of(" \t", i);
    if (first < line_end && code[first] == '#') {
      while (line_end < code.size() && line_end > first &&
             code[line_end - 1] == '\\') {
        line_end = code.find('\n', line_end + 1);
        if (line_end == std::string::npos) line_end = code.size();
      }
      AddIdentifiers(code, first, line_end, &scan.references);
      for (size_t k = first; k < line_end; ++k) {
        if (code[k] != '\n') code[k] = ' ';
      }
    }
    i = line_end + 1;
  }
  size_t head = 0;
  // After a non-function brace body (an initializer, an enum) the
  // statement's tail up to `;` holds no declarator.
  bool tail = false;
  size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '}') {  // closes a namespace or class body
      head = ++i;
      tail = false;
      continue;
    }
    if (c != ';' && c != '{') {
      ++i;
      continue;
    }
    if (c == ';') {
      if (tail) {
        AddIdentifiers(code, head, i, &scan.references);
      } else {
        ScanDeclaration(code, head, i, &scan);
      }
      head = ++i;
      tail = false;
      continue;
    }
    std::string class_name;
    if (!tail && OpensScope(std::string_view(code).substr(head, i - head),
                            &class_name)) {
      if (!class_name.empty()) scan.class_names.insert(class_name);
      AddIdentifiers(code, head, i, &scan.references);
      head = ++i;
      continue;
    }
    const bool is_function =
        !tail && ScanDeclaration(code, head, i, &scan);
    const size_t end = MatchSpan(code, i);
    if (end == std::string::npos) break;
    AddIdentifiers(code, i, end, &scan.references);
    head = i = end;
    tail = !is_function;
  }
  return scan;
}

}  // namespace internal

// --- the checks --------------------------------------------------------------

/// layer-dag: include direction, test-code isolation, include cycles.
inline void CheckLayerDag(const std::vector<SourceFile>& files,
                          std::vector<Finding>* findings) {
  using internal::LayerDag;
  using internal::LayerOf;
  // Directional rules + graph for the cycle pass.
  std::map<std::string, std::vector<std::string>> graph;
  for (const SourceFile& f : files) {
    const std::string layer = LayerOf(f.path);
    if (layer.empty()) continue;
    const auto rules = LayerDag().find(layer);
    if (rules == LayerDag().end()) {
      findings->push_back({f.path, 0, "layer-dag",
                           "directory '" + layer +
                               "' is not part of the layer DAG (extend "
                               "LayerDag() deliberately)",
                           ""});
      continue;
    }
    for (const internal::IncludeRef& inc :
         internal::QuotedIncludes(f.path, f.content)) {
      if (inc.target.empty()) continue;  // not a layered include
      const std::string target_layer = LayerOf(inc.target);
      if (target_layer.empty()) continue;
      const std::string text = "#include \"" + inc.raw + "\"";
      if (layer != "tests" && target_layer == "tests") {
        findings->push_back({f.path, inc.line, "layer-dag",
                             "src/ must not include test code (" + inc.raw +
                                 ")",
                             text});
        continue;
      }
      if (rules->second.count(target_layer) == 0) {
        findings->push_back(
            {f.path, inc.line, "layer-dag",
             "layer '" + layer + "' must not include layer '" + target_layer +
                 "' (" + inc.raw + "); allowed: util/core <- classic|"
                 "constraints|algebra <- storage <- query <- workload <- "
                 "tests",
             text});
        continue;
      }
      graph[f.path].push_back(inc.target);
    }
  }
  // File-granularity cycle detection (DFS, three colors). The layer rules
  // allow util <-> core as a *layer* pair; an actual header cycle between
  // files is still an error.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;
  struct Dfs {
    std::map<std::string, std::vector<std::string>>& graph;
    std::map<std::string, int>& color;
    std::vector<std::string>& stack;
    std::set<std::string>& reported;
    std::vector<Finding>* findings;
    void Visit(const std::string& node) {
      color[node] = 1;
      stack.push_back(node);
      for (const std::string& next : graph[node]) {
        if (color[next] == 2) continue;
        if (color[next] == 1) {
          auto it = std::find(stack.begin(), stack.end(), next);
          std::string chain;
          for (; it != stack.end(); ++it) chain += *it + " -> ";
          chain += next;
          if (reported.insert(chain).second) {
            findings->push_back({node, 0, "layer-dag",
                                 "include cycle: " + chain, ""});
          }
          continue;
        }
        Visit(next);
      }
      stack.pop_back();
      color[node] = 2;
    }
  };
  Dfs dfs{graph, color, stack, reported, findings};
  for (const auto& [node, _] : graph) {
    if (color[node] == 0) dfs.Visit(node);
  }
}

/// closed-enum-default: no `default:` arm in a switch whose case labels
/// name a closed enum.
inline void CheckClosedEnumDefault(
    const std::vector<SourceFile>& files,
    const std::map<std::string, std::string>& stripped,
    std::vector<Finding>* findings) {
  using internal::MatchSpan;
  using internal::WordAt;
  for (const SourceFile& f : files) {
    const std::string& code = stripped.at(f.path);
    // Collect every switch body span [open, close).
    struct Span {
      size_t open;
      size_t close;
    };
    std::vector<Span> spans;
    for (size_t pos = 0; (pos = code.find("switch", pos)) != std::string::npos;
         pos += 6) {
      if (!WordAt(code, pos, "switch")) continue;
      size_t p = pos + 6;
      while (p < code.size() && std::isspace(static_cast<unsigned char>(
                                    code[p])) != 0) {
        ++p;
      }
      if (p >= code.size() || code[p] != '(') continue;
      const size_t cond_end = MatchSpan(code, p);
      if (cond_end == std::string::npos) continue;
      size_t body = cond_end;
      while (body < code.size() && std::isspace(static_cast<unsigned char>(
                                       code[body])) != 0) {
        ++body;
      }
      if (body >= code.size() || code[body] != '{') continue;
      const size_t body_end = MatchSpan(code, body);
      if (body_end == std::string::npos) continue;
      spans.push_back({body, body_end});
    }
    for (const Span& s : spans) {
      // The region owned by this switch = its body minus nested switch
      // bodies (case labels of an inner switch belong to the inner one).
      auto owned = [&spans, &s](size_t pos) {
        for (const Span& inner : spans) {
          if (inner.open > s.open && inner.close <= s.close &&
              pos >= inner.open && pos < inner.close) {
            return false;
          }
        }
        return true;
      };
      std::set<std::string> closed_hits;
      size_t default_pos = std::string::npos;
      for (size_t pos = s.open; pos < s.close; ++pos) {
        if (!owned(pos)) continue;
        if (WordAt(code, pos, "case")) {
          // Label text runs to the first ':' that is not part of '::'.
          size_t e = pos + 4;
          while (e < s.close) {
            if (code[e] == ':' && (e + 1 >= code.size() ||
                                   code[e + 1] != ':') &&
                code[e - 1] != ':') {
              break;
            }
            ++e;
          }
          const std::string label = code.substr(pos + 4, e - pos - 4);
          // Split on '::', test each qualifier component.
          size_t b = 0;
          while (b < label.size()) {
            size_t q = label.find("::", b);
            if (q == std::string::npos) q = label.size();
            std::string part = label.substr(b, q - b);
            part.erase(std::remove_if(part.begin(), part.end(),
                                      [](char c) {
                                        return std::isspace(
                                                   static_cast<unsigned char>(
                                                       c)) != 0;
                                      }),
                       part.end());
            if (internal::ClosedEnums().count(part) > 0) {
              closed_hits.insert(part);
            }
            b = q + 2;
          }
          pos = e;
          continue;
        }
        if (WordAt(code, pos, "default")) {
          size_t e = pos + 7;
          while (e < code.size() && std::isspace(static_cast<unsigned char>(
                                        code[e])) != 0) {
            ++e;
          }
          if (e < code.size() && code[e] == ':' &&
              (e + 1 >= code.size() || code[e + 1] != ':')) {
            default_pos = pos;
          }
        }
      }
      if (!closed_hits.empty() && default_pos != std::string::npos) {
        std::string enums;
        for (const std::string& e : closed_hits) {
          enums += (enums.empty() ? "" : ", ") + e;
        }
        findings->push_back(
            {f.path, internal::LineOf(code, default_pos),
             "closed-enum-default",
             "switch over closed enum " + enums +
                 " carries a default: arm — enumerate every variant so "
                 "-Wswitch flags new ones (or allowlist with justification)",
             internal::LineTextAt(f.content, default_pos)});
      }
    }
  }
}

/// True if a `Result<TuplePtr>` return type starts at `pos` and declares or
/// defines a function named `Next` (plain or qualified, e.g. `Cursor::Next`).
inline bool TupleAtATimeNextAt(std::string_view code, size_t pos) {
  constexpr std::string_view kType = "Result<TuplePtr>";
  if (code.compare(pos, kType.size(), kType) != 0) return false;
  size_t p = pos + kType.size();
  while (p < code.size() && std::isspace(static_cast<unsigned char>(
                                code[p])) != 0) {
    ++p;
  }
  const size_t name_begin = p;
  while (p < code.size() &&
         (internal::IsIdentChar(code[p]) || code[p] == ':')) {
    ++p;
  }
  const std::string_view name = code.substr(name_begin, p - name_begin);
  const bool qualified =
      name.size() > 6 && name.substr(name.size() - 6) == "::Next";
  if (name != "Next" && !qualified) return false;
  while (p < code.size() && std::isspace(static_cast<unsigned char>(
                                code[p])) != 0) {
    ++p;
  }
  return p < code.size() && code[p] == '(';
}

/// True if a retired per-entry map shape starts at `pos`: a hash map from
/// 64-bit hashes to heap vectors of positions or tuple handles (whitespace
/// ignored). Copying one costs a heap node per entry, so versioned roots
/// key their maps with util::HashTrie instead.
inline bool RetiredEntryMapAt(std::string_view code, size_t pos) {
  constexpr std::string_view kHead = "std::unordered_map<";
  if (code.compare(pos, kHead.size(), kHead) != 0) return false;
  std::string shape;
  int depth = 0;
  for (size_t p = pos; p < code.size(); ++p) {
    const char c = code[p];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    shape.push_back(c);
    if (c == '<') ++depth;
    if (c == '>' && --depth == 0) break;
  }
  return shape == "std::unordered_map<uint64_t,std::vector<size_t>>" ||
         shape == "std::unordered_map<uint64_t,std::vector<TuplePtr>>";
}

/// banned-construct: naked new/delete, non-harness RNG, stderr printf in
/// library code, blocking calls inside worker-pool task lambdas, in src/ a
/// second hash-build path or a mirrored relation size, in src/core and
/// src/storage a retired per-entry hash map, and — in src/query — a
/// tuple-at-a-time cursor protocol or a live-database read.
inline void CheckBannedConstructs(
    const std::vector<SourceFile>& files,
    const std::map<std::string, std::string>& stripped,
    std::vector<Finding>* findings) {
  using internal::LineOf;
  using internal::LineTextAt;
  using internal::MatchSpan;
  using internal::WordAt;
  for (const SourceFile& f : files) {
    const std::string& code = stripped.at(f.path);
    const bool in_tests = f.path.rfind("tests/", 0) == 0;
    const bool in_src = f.path.rfind("src/", 0) == 0;
    const bool in_query = f.path.rfind("src/query/", 0) == 0;
    const bool in_versioned = f.path.rfind("src/core/", 0) == 0 ||
                              f.path.rfind("src/storage/", 0) == 0;
    auto add = [&](size_t pos, const std::string& message) {
      findings->push_back({f.path, LineOf(code, pos), "banned-construct",
                           message, LineTextAt(f.content, pos)});
    };
    if (in_query) {
      for (const internal::IncludeRef& inc :
           internal::QuotedIncludes(f.path, f.content)) {
        if (inc.raw == "storage/database.h") {
          findings->push_back(
              {f.path, inc.line, "banned-construct",
               "src/query includes storage/database.h — the query layer "
               "reads a pinned storage::DatabaseVersion "
               "(storage/database_version.h), never the live Database",
               "#include \"" + inc.raw + "\""});
        }
      }
    }
    for (size_t pos = 0; pos < code.size(); ++pos) {
      if (WordAt(code, pos, "new")) {
        // `new X(...)` — ownership must go through std::make_unique /
        // std::make_shared (allowlist deliberate leaks / private ctors).
        size_t e = pos + 3;
        while (e < code.size() && std::isspace(static_cast<unsigned char>(
                                      code[e])) != 0) {
          ++e;
        }
        if (e < code.size() &&
            (internal::IsIdentChar(code[e]) || code[e] == '(')) {
          add(pos,
              "naked new — use std::make_unique/std::make_shared (or "
              "allowlist with justification)");
        }
      }
      if (WordAt(code, pos, "delete")) {
        // Skip `= delete` (deleted functions) and `delete` in comments
        // (already stripped).
        size_t b = pos;
        while (b > 0 && std::isspace(static_cast<unsigned char>(
                            code[b - 1])) != 0) {
          --b;
        }
        if (b == 0 || code[b - 1] != '=') {
          add(pos, "naked delete — owning raw pointers are banned");
        }
      }
      if (WordAt(code, pos, "srand") || code.compare(pos, 10, "std::rand(") ==
                                            0 ||
          code.compare(pos, 18, "std::random_device") == 0 ||
          (WordAt(code, pos, "rand") && pos + 4 < code.size() &&
           code[pos + 4] == '(')) {
        if (pos == 0 || code.compare(pos - 1, 2, ":r") != 0 ||
            code.compare(pos, 5, "rand(") != 0) {
          // (std::rand( is reported once, at the std:: token)
          add(pos,
              in_tests
                  ? "unseeded/global RNG in tests — all randomness must go "
                    "through tests/test_seeds.h (seed-reproducible fuzz)"
                  : "global RNG — use util/random.h (seedable, "
                    "deterministic)");
        }
      }
      if (in_src) {
        if (WordAt(code, pos, "IndexedBuildSide") ||
            WordAt(code, pos, "TryIndexFedEquiJoin") ||
            WordAt(code, pos, "hash_builds_from_index")) {
          add(pos,
              "index-fed hash build in src/ — the hash join has one build "
              "path: it drains and digests its build cursor");
        }
        if (WordAt(code, pos, "SetTupleCount")) {
          add(pos,
              "tuple-count mirror in src/ — relation sizes come from "
              "Relation::size(), read through the plan resolver");
        }
      }
      if (in_versioned && RetiredEntryMapAt(code, pos)) {
        add(pos,
            "per-entry hash map in a versioned root — a pinned commit "
            "would copy every entry; key the map with util::HashTrie");
      }
      if (in_query) {
        if (WordAt(code, pos, "ScalarCursor") ||
            WordAt(code, pos, "NextTuple") ||
            TupleAtATimeNextAt(code, pos)) {
          add(pos,
              "tuple-at-a-time cursor protocol in src/query — cursors "
              "implement only NextBatch(); consumers index into the "
              "pulled batch");
        }
        if (WordAt(code, pos, "storage::Database")) {
          add(pos,
              "storage::Database in src/query — the read surface is a "
              "pinned storage::DatabaseVersion");
        }
      }
      if (code.compare(pos, 7, "fprintf") == 0 && !in_tests) {
        size_t e = pos + 7;
        while (e < code.size() && (std::isspace(static_cast<unsigned char>(
                                       code[e])) != 0 ||
                                   code[e] == '(')) {
          ++e;
        }
        if (code.compare(e, 6, "stderr") == 0) {
          add(pos,
              "fprintf(stderr, ...) in library code — report through "
              "util::Status; stderr printing belongs in bench/ and tools/");
        }
      }
    }
    // Worker-pool task bodies must be pure leaf kernels: no locks, no
    // sleeps, no file I/O. This is the "workers never wait" invariant
    // that makes the shared pool deadlock-free (util/thread_pool.h).
    if (!in_tests) {
      static const char* const kBlocking[] = {
          "sleep_for",  "sleep(",     "usleep",    "lock_guard",
          "unique_lock", "scoped_lock", "MutexLock", ".lock()",
          "fsync",      "fopen",      "ifstream",  "ofstream",
          "std::cout",  "std::cerr",  "Submit(",
      };
      for (const char* entry : {"Submit", "ParallelMorsels"}) {
        for (size_t pos = 0;
             (pos = code.find(entry, pos)) != std::string::npos;
             pos += std::string(entry).size()) {
          if (pos > 0 && internal::IsIdentChar(code[pos - 1])) continue;
          size_t p = pos + std::string(entry).size();
          if (p >= code.size() || code[p] != '(') continue;
          const size_t end = MatchSpan(code, p);
          if (end == std::string::npos) continue;
          // Definitions (parameter lists) contain no lambda bodies; call
          // sites carry the task lambda inside the argument span.
          const std::string_view span(code.data() + p, end - p);
          if (span.find('{') == std::string_view::npos) continue;
          for (const char* banned : kBlocking) {
            const size_t hit = span.find(banned);
            if (hit != std::string_view::npos) {
              add(p + hit,
                  std::string("blocking call '") + banned +
                      "' inside a worker-pool task lambda — tasks must be "
                      "pure leaf kernels (util/thread_pool.h invariant)");
            }
          }
        }
      }
    }
  }
}

/// doc-parity: every PlanStats counter field appears in ARCHITECTURE.md.
inline void CheckDocParity(const Options& options,
                           std::vector<Finding>* findings) {
  if (options.plan_header.empty() || options.architecture_md.empty()) return;
  const std::string code =
      internal::StripCommentsAndLiterals(options.plan_header);
  const size_t decl = code.find("struct PlanStats");
  if (decl == std::string::npos) {
    findings->push_back({"src/query/plan.h", 0, "doc-parity",
                         "struct PlanStats not found", ""});
    return;
  }
  const size_t open = code.find('{', decl);
  if (open == std::string::npos) return;
  const size_t close = internal::MatchSpan(code, open);
  if (close == std::string::npos) return;
  // Field declarations: `type name = init;` or `type name;` with no '('
  // before the ';' (which would make it a member function).
  std::vector<std::pair<std::string, size_t>> fields;
  size_t line_start = open;
  for (size_t i = open + 1; i < close - 1; ++i) {
    if (code[i] != ';') continue;
    const size_t stmt_begin = line_start + 1;
    const std::string stmt = code.substr(stmt_begin, i - stmt_begin);
    line_start = i;
    if (stmt.find('(') != std::string::npos) continue;
    if (stmt.find('}') != std::string::npos) continue;
    // The field name is the last identifier before '=' (or before ';').
    const size_t eq = stmt.find('=');
    const std::string head = eq == std::string::npos ? stmt
                                                     : stmt.substr(0, eq);
    size_t e = head.size();
    while (e > 0 && !internal::IsIdentChar(head[e - 1])) --e;
    size_t b = e;
    while (b > 0 && internal::IsIdentChar(head[b - 1])) --b;
    if (b == e) continue;
    const std::string name = head.substr(b, e - b);
    if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) continue;
    fields.emplace_back(name, internal::LineOf(code, stmt_begin + b));
  }
  for (const auto& [name, line] : fields) {
    if (options.architecture_md.find(name) == std::string::npos) {
      findings->push_back(
          {"src/query/plan.h", line, "doc-parity",
           "PlanStats counter '" + name +
               "' is not mentioned in docs/ARCHITECTURE.md — the EXPLAIN "
               "surface must stay documented",
           name});
    }
  }
}

/// style: tabs, trailing whitespace, CRLF, final newline.
inline void CheckStyle(const std::vector<SourceFile>& files,
                       std::vector<Finding>* findings) {
  for (const SourceFile& f : files) {
    const std::string& text = f.content;
    size_t line = 1;
    size_t line_begin = 0;
    auto flush_line = [&](size_t end) {
      std::string_view lv(text.data() + line_begin, end - line_begin);
      if (!lv.empty() && lv.back() == '\r') {
        findings->push_back({f.path, line, "style", "CRLF line ending",
                             std::string(lv)});
        lv.remove_suffix(1);
      }
      if (lv.find('\t') != std::string_view::npos) {
        findings->push_back({f.path, line, "style", "tab character",
                             std::string(lv)});
      }
      if (!lv.empty() && (lv.back() == ' ' || lv.back() == '\t')) {
        findings->push_back({f.path, line, "style", "trailing whitespace",
                             std::string(lv)});
      }
    };
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') {
        flush_line(i);
        ++line;
        line_begin = i + 1;
      }
    }
    if (line_begin < text.size()) {
      flush_line(text.size());
      findings->push_back({f.path, line, "style",
                           "file does not end with a newline", ""});
    }
    if (text.size() >= 2 && text[text.size() - 1] == '\n' &&
        text[text.size() - 2] == '\n') {
      findings->push_back({f.path, line, "style",
                           "file ends with more than one blank line", ""});
    }
  }
}

/// unreachable-api: every function declared in a src/** header has a
/// reference outside its declaration and definition, in src/ or in the
/// reference-only files (tests do not count).
inline void CheckUnreachableApi(
    const std::vector<SourceFile>& files,
    const std::map<std::string, std::string>& stripped,
    const std::vector<SourceFile>& reference_files,
    std::vector<Finding>* findings) {
  std::set<std::string> references;
  std::set<std::string> class_names;
  std::vector<std::pair<const SourceFile*, internal::ApiScan>> headers;
  auto scan_file = [&](const SourceFile& f, const std::string& code) {
    internal::ApiScan scan = internal::ScanApi(code);
    references.insert(scan.references.begin(), scan.references.end());
    class_names.insert(scan.class_names.begin(), scan.class_names.end());
    const bool header = f.path.size() > 2 &&
                        f.path.compare(f.path.size() - 2, 2, ".h") == 0;
    if (header && f.path.rfind("src/", 0) == 0) {
      headers.emplace_back(&f, std::move(scan));
    }
  };
  for (const SourceFile& f : files) {
    if (f.path.rfind("tests/", 0) == 0) continue;
    scan_file(f, stripped.at(f.path));
  }
  for (const SourceFile& f : reference_files) {
    scan_file(f, internal::StripCommentsAndLiterals(f.content));
  }
  for (const auto& [file, scan] : headers) {
    for (const auto& [name, pos] : scan.declarators) {
      if (references.count(name) > 0 || class_names.count(name) > 0) {
        continue;
      }
      findings->push_back(
          {file->path, internal::LineOf(file->content, pos),
           "unreachable-api",
           "'" + name +
               "' has no reference outside its declaration and definition "
               "in src/, examples/, tools/, bench/ or perfbench/ (tests do "
               "not count) — delete it, move a test-only helper into its "
               "test, or allowlist it with the reason it stays",
           internal::LineTextAt(file->content, pos)});
    }
  }
}

// --- allowlist + driver -------------------------------------------------------

inline std::vector<AllowEntry> ParseAllowlist(std::string_view text,
                                              std::vector<Finding>* findings) {
  std::vector<AllowEntry> entries;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    const std::string line(
        text.substr(pos, (nl == std::string_view::npos ? text.size() : nl) -
                             pos));
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> parts;
    size_t b = 0;
    while (true) {
      const size_t bar = line.find('|', b);
      parts.push_back(line.substr(b, bar == std::string::npos
                                         ? std::string::npos
                                         : bar - b));
      if (bar == std::string::npos) break;
      b = bar + 1;
    }
    if (parts.size() != 4 || parts[3].empty()) {
      findings->push_back(
          {"tools/lint_allowlist.txt", line_no, "allowlist",
           "malformed entry (want check|path|line-substring|reason): " + line,
           line});
      continue;
    }
    entries.push_back({parts[0], parts[1], parts[2], parts[3], false});
  }
  return entries;
}

/// Runs every check over `files`, applies the allowlist, reports unused
/// allowlist entries, and returns the surviving findings sorted by
/// (path, line).
inline std::vector<Finding> Run(const std::vector<SourceFile>& files,
                                const Options& options) {
  std::vector<Finding> findings;
  std::vector<AllowEntry> allow =
      ParseAllowlist(options.allowlist, &findings);

  std::map<std::string, std::string> stripped;
  for (const SourceFile& f : files) {
    stripped[f.path] = internal::StripCommentsAndLiterals(f.content);
  }

  std::vector<Finding> raw;
  CheckLayerDag(files, &raw);
  CheckClosedEnumDefault(files, stripped, &raw);
  CheckBannedConstructs(files, stripped, &raw);
  CheckDocParity(options, &raw);
  CheckStyle(files, &raw);
  CheckUnreachableApi(files, stripped, options.reference_files, &raw);

  for (Finding& f : raw) {
    bool suppressed = false;
    for (AllowEntry& entry : allow) {
      if (entry.check == f.check && entry.path == f.path &&
          (entry.pattern.empty() ||
           f.line_text.find(entry.pattern) != std::string::npos)) {
        entry.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) findings.push_back(std::move(f));
  }
  for (const AllowEntry& entry : allow) {
    if (!entry.used) {
      findings.push_back(
          {"tools/lint_allowlist.txt", 0, "allowlist",
           "unused allowlist entry (" + entry.check + "|" + entry.path + "|" +
               entry.pattern + ") — remove it so suppressions cannot rot",
           ""});
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace hrdm::lint

#endif  // HRDM_TOOLS_HRDM_LINT_LIB_H_
