//===-- tools/medley-lint/Lint.h - Determinism lint -------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// medley-lint: a token linter over the Medley sources for the
/// invariants that no test or sanitizer sees (DESIGN.md §10). Five
/// single-file rule families and one over the linked tree; the numbers
/// of the retired rules (L6, L7, L9–L12) are not reused:
///
///   nondeterminism     (L1)  wall-clock / unseeded entropy in src/
///   unordered-reduction(L2)  reductions fed by unordered-container order
///   raw-concurrency    (L3)  std::thread / detach / raw mutex.lock()
///                            outside src/support/
///   float-equality     (L4)  ==/!= against floating literals outside
///                            test assertions
///   error-check        (L5)  support::Error* out-params a function body
///                            never touches
///   lock-order         (L8)  lock-acquisition-order cycles and locks held
///                            across blocking calls in src/, over the
///                            whole-tree call graph (Index.h, CallGraph.h)
///
/// The analysis is a tokenizer plus per-rule heuristics — deliberately
/// not a real C++ front end. It trades soundness for zero dependencies
/// and a whole-tree run in tens of milliseconds; the escape hatch is the
/// `// medley-lint: allow(<rule>)` annotation on the offending statement.
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
/// comment sits on.
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
};

/// "file:line:col: [rule] message" — the GCC-style diagnostic form.
std::string renderText(const Finding &F);

/// Runs every applicable rule over \p Source, honouring allow
/// annotations. Findings come back sorted by (line, col, rule).
std::vector<Finding> lintSource(const std::string &Path,
                                const std::string &Source);

/// As above with the tree position forced — lets tests exercise
/// src-only rules on snippets.
std::vector<Finding> lintSource(const std::string &Path,
                                const std::string &Source, FileKind Kind);

/// One file of a tree, under its reported path.
struct SourceFile {
  std::string Path;
  std::string Source;
};

/// Lints a whole tree: lintSource over every file, then L8 over the call
/// graph linked from the files under src/. Findings come back sorted by
/// (file, line, col, rule).
std::vector<Finding> lintTree(const std::vector<SourceFile> &Files);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_H
