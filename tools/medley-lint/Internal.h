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
inline constexpr const char *RuleHotpathAlloc = "hotpath-alloc";
// Interprocedural families (DESIGN.md §12), computed over the linked
// call graph rather than a single token stream.
inline constexpr const char *RuleHotpathEscape = "hotpath-escape";
inline constexpr const char *RuleLockOrder = "lock-order";
inline constexpr const char *RuleDeterminismTaint = "determinism-taint";
// Flow-sensitive families (DESIGN.md §15), computed from the CFG +
// dataflow summaries over the linked call graph.
inline constexpr const char *RuleCrossThreadWrite = "cross-thread-write";
inline constexpr const char *RuleArenaEscape = "arena-escape";

/// Analyzer identity folded into the incremental-cache fingerprint: any
/// change to what the analyzer computes (new rules, changed summaries,
/// changed serialization) must bump this so warm caches cannot serve
/// stale reports.
inline constexpr const char *AnalyzerVersion = "medley-lint-4";

/// One catalog row per rule: id, human name, one-line description.
/// Drives the SARIF `rules` metadata and the cache fingerprint.
struct RuleMeta {
  const char *Id;
  const char *Name;
  const char *Short;
};

/// All rules L1–L12 in reporting order.
const std::vector<RuleMeta> &ruleCatalog();

/// Runs every rule family applicable to \p Kind over \p Lexed, appending
/// raw (un-suppressed, unsorted) findings to \p Out. \p SourceLines is
/// the file split at newlines, 0-indexed, used to fill
/// Finding::SourceLine.
void runRules(const std::string &Path, FileKind Kind, const LexedFile &Lexed,
              const std::vector<std::string> &SourceLines,
              std::vector<Finding> &Out);

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string &S);

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

/// Serialization plumbing shared by the index and the cache: records
/// are lines of tab-separated fields with backslash escapes for tab,
/// newline and backslash.
std::string escapeTsvField(const std::string &S);
void appendTsvLine(std::string &Out, const std::vector<std::string> &Fields);
bool readTsvLine(const std::string &Data, size_t &Pos,
                 std::vector<std::string> &Fields);
bool parseUnsignedField(const std::string &S, unsigned &Out);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_INTERNAL_H
