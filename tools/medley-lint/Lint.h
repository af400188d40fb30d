//===-- tools/medley-lint/Lint.h - Determinism lint -------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// medley-lint: a project-specific static-analysis pass over the Medley
/// sources enforcing the invariants the experiment engine's determinism
/// contract rests on (DESIGN.md §10). Eleven rule families; L11, which
/// guarded the removed expert registry's snapshots, is retired and the
/// other numbers are kept:
///
///   nondeterminism     (L1)  wall-clock / unseeded entropy in src/
///   unordered-reduction(L2)  reductions fed by unordered-container order
///   raw-concurrency    (L3)  std::thread / detach / raw mutex.lock()
///                            outside src/support/
///   float-equality     (L4)  ==/!= against floating literals outside
///                            test assertions
///   error-check        (L5)  support::Error* out-params a function body
///                            never touches
///   hotpath-alloc      (L6)  value-returning linalg calls (add/sub/
///                            scale/hadamard) in the decision hot-path
///                            files, which must stay allocation-free
///                            (DESIGN.md §11)
///   hotpath-escape     (L7)  interprocedural: any call path from a
///                            decision entry point to an allocation
///                            site, over the whole-project call graph
///   lock-order         (L8)  interprocedural: lock-acquisition-order
///                            cycles and locks held across blocking
///                            calls
///   determinism-taint  (L9)  interprocedural: entropy/wall-clock taint
///                            flowing into RNG seeds or trace output
///   cross-thread-write (L10) flow-sensitive: non-atomic fields/globals
///                            written lock-free on paths reachable from
///                            thread-task bodies
///   arena-escape       (L12) flow-sensitive: Arena::allocateArray
///                            storage escaping tick scope or used after
///                            the arena's reset()
///
/// L7–L9 live in Semantic.h/CallGraph.h (DESIGN.md §12); L10 and L12 add a
/// per-function CFG + dataflow layer in phase 1 (Cfg.h/Dataflow.h,
/// DESIGN.md §15). This header is the single-file token layer they all
/// build on.
///
/// The analysis is a tokenizer plus per-rule heuristics — deliberately
/// not a real C++ front end. It trades soundness for zero dependencies
/// and sub-second runtime over the whole tree; escape hatches are the
/// `// medley-lint: allow(<rule>)` annotation (same line or the line
/// above) and `--baseline` suppression files for burn-down.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_H
#define MEDLEY_TOOLS_LINT_H

#include <map>
#include <set>
#include <string>
#include <vector>

namespace medley::lint {

/// One C++ token with its source position. The lexer understands
/// comments, string/char literals (including raw strings), numbers and
/// multi-character operators; everything it does not model becomes a
/// single-character Punct token.
struct Token {
  enum Kind { Ident, Number, String, Punct };
  Kind K = Punct;
  std::string Text;
  unsigned Line = 0; ///< 1-based.
  unsigned Col = 0;  ///< 1-based.
};

/// The lexed form of one translation unit: the token stream plus the
/// `// medley-lint: allow(rule)` annotations, keyed by the line the
/// comment sits on. An annotation suppresses findings of the named
/// rules on its own line and on the following line.
struct LexedFile {
  std::vector<Token> Tokens;
  std::map<unsigned, std::set<std::string>> AllowedByLine;
};

/// Tokenizes \p Source. Never fails: unterminated constructs consume to
/// end of input.
LexedFile lex(const std::string &Source);

/// Where a file sits in the tree, which decides rule applicability.
enum class FileKind {
  Src,        ///< src/ outside support/ — every rule.
  SrcSupport, ///< src/support/ — concurrency primitives live here.
  Apps,
  Bench,
  Tests, ///< assertion macros exempt from float-equality.
  Other,
};

/// Classifies \p Path by its directory components ("src", "src/support",
/// "apps", "bench", "tests" anywhere in the path).
FileKind classifyPath(const std::string &Path);

/// One diagnostic.
struct Finding {
  std::string File;
  unsigned Line = 0;
  unsigned Col = 0;
  std::string Rule;
  std::string Message;
  /// The trimmed source line, used as the position-independent baseline
  /// key so suppressions survive unrelated edits above the finding.
  std::string SourceLine;
};

/// "file:line:col: [rule] message" — the GCC-style diagnostic form.
std::string renderText(const Finding &F);

/// Runs every applicable rule over \p Source, honouring allow
/// annotations. Findings come back sorted by (file, line, col, rule).
std::vector<Finding> lintSource(const std::string &Path,
                                const std::string &Source);

/// As above with the tree position forced — lets tests exercise
/// src-only rules on fixture snippets.
std::vector<Finding> lintSource(const std::string &Path,
                                const std::string &Source, FileKind Kind);

/// Baseline files: one suppression per line, `file|rule|trimmed source
/// line`, '#' comments and blank lines ignored. Each line suppresses
/// one matching finding (multiset semantics). '\' and '|' inside the
/// fields are backslash-escaped so a source line containing '|' still
/// round-trips (and the key stays parseable).
std::vector<std::string> renderBaseline(const std::vector<Finding> &Findings);

/// The escaped `file|rule|source-line` key for one finding — exactly
/// the line renderBaseline would emit.
std::string renderBaselineKey(const Finding &F);

/// Splits an escaped baseline line back into its three fields. Returns
/// false on malformed input (wrong field count, trailing escape).
bool parseBaselineKey(const std::string &Line, std::string &File,
                      std::string &Rule, std::string &SourceLine);

/// Parses baseline lines (as read from disk) and removes one matching
/// finding per suppression. Returns the survivors, still sorted.
std::vector<Finding> applyBaseline(std::vector<Finding> Findings,
                                   const std::vector<std::string> &Lines);

/// applyBaseline plus an audit of the baseline itself: which input
/// lines actually forgave a finding and which are stale (the finding
/// they suppressed no longer exists). Comment and blank lines appear in
/// neither list. Drives `--prune-baseline` and the CI staleness gate.
struct BaselineResult {
  std::vector<Finding> Kept; ///< Survivors, sorted like applyBaseline.
  std::vector<size_t> UsedLines;  ///< Indices into Lines that matched.
  std::vector<size_t> StaleLines; ///< Indices that matched nothing.
};
BaselineResult applyBaselineDetailed(std::vector<Finding> Findings,
                                     const std::vector<std::string> &Lines);

/// The whole report as pretty-printed JSON: a sorted findings array
/// plus per-rule counts. Stable across runs — no timestamps, no paths
/// outside the findings themselves.
std::string renderJson(const std::vector<Finding> &Findings);

/// The same findings as a SARIF 2.1.0 log (one run, one result per
/// finding) for editor and CI integrations. Stable across runs.
std::string renderSarif(const std::vector<Finding> &Findings);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_H
