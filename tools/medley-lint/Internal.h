//===-- tools/medley-lint/Internal.h - Shared internals ---------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internals shared between the lint driver and the rule
/// implementations; not part of the tool's public surface.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_INTERNAL_H
#define MEDLEY_TOOLS_LINT_INTERNAL_H

#include "medley-lint/Lint.h"

namespace medley::lint {

/// Canonical rule names, in reporting order.
inline constexpr const char *RuleNondeterminism = "nondeterminism";
inline constexpr const char *RuleUnorderedReduction = "unordered-reduction";
inline constexpr const char *RuleRawConcurrency = "raw-concurrency";
inline constexpr const char *RuleFloatEquality = "float-equality";
inline constexpr const char *RuleErrorCheck = "error-check";
inline constexpr const char *RuleLockOrder = "lock-order";

/// Runs every single-file rule family applicable to \p Kind over
/// \p Lexed, appending raw (un-suppressed, unsorted) findings to \p Out.
void runRules(const std::string &Path, FileKind Kind, const LexedFile &Lexed,
              std::vector<Finding> &Out);

/// \p I indexes an opening brace/paren; returns the index one past its
/// match (or Toks.size() when unbalanced).
size_t skipBalanced(const std::vector<Token> &Toks, size_t I,
                    const char *Open, const char *Close);

/// Skips template arguments starting at an opening '<' at \p I; '>>'
/// closes two levels. Returns the index one past the closing '>', or
/// the bail-out position when the '<' turns out to be a comparison.
size_t skipTemplateArgs(const std::vector<Token> &Toks, size_t I);

/// Expands allow annotations to per-line rule coverage: an annotation on
/// line N covers N and N+1, and when the statement starting there spans
/// further physical lines, every line through the statement's end (';',
/// or a block open/close at top level). This is what makes
///   // medley-lint: allow(rule)
///   auto X = call(spanning,
///                 several, lines);
/// suppress findings anywhere inside the statement.
std::map<unsigned, std::set<std::string>>
expandAllowCoverage(const LexedFile &Lexed);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_INTERNAL_H
