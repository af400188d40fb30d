//===-- tools/medley-lint/Index.h - Per-file lock index ---------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-file half of the lock-order rule (L8, DESIGN.md §12): one pass
/// over a translation unit's token stream producing a FileIndex — every
/// function/method definition with its qualified name, and per function
/// the call sites with the locks held at each, the locks it acquires and
/// the acquisition orderings inside its body.
///
/// Like the token rules, the indexer is a heuristic C++ reader, not a
/// front end: templated call names (`f<T>(..)`) and exotic declarator
/// forms are simply not indexed, which under-approximates the graph but
/// never crashes.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_INDEX_H
#define MEDLEY_TOOLS_LINT_INDEX_H

#include "medley-lint/Lint.h"

namespace medley::lint {

/// One call site inside a function body.
struct CallSite {
  std::string Name;      ///< Unqualified callee name.
  std::string Qualifier; ///< Explicit qualifier as written ("std",
                         ///< "medley::linalg"), empty when unqualified.
  bool IsMember = false; ///< `x.f(...)` / `x->f(...)`.
  unsigned Line = 0;
  unsigned Col = 0;
  /// Locks held at this call site; empty for the overwhelmingly common
  /// unlocked call.
  std::vector<std::string> HeldLocks;
};

/// `Second` acquired while `First` was held, inside one function.
struct LockEdge {
  std::string First;
  std::string Second;
  unsigned Line = 0;
};

/// Everything the link needs to know about one function definition.
struct FunctionInfo {
  std::string Qual;  ///< Fully qualified name, no signature: overloads
                     ///< collapse onto one graph node.
  std::string Name;  ///< Last component of Qual.
  std::string Class; ///< Enclosing class name, empty for free functions.
  std::vector<CallSite> Calls;
  /// Locks this function acquires (lock_guard/scoped_lock/unique_lock
  /// construction or a raw `.lock()`), by normalized id: `Class::Member`
  /// for a bare member name, the written expression otherwise.
  std::vector<std::string> Acquires;
  std::vector<LockEdge> LockEdges;
  /// Quals of the lambda bodies this function hands to a thread-spawning
  /// call (parallelFor/submit/...). Each is indexed as its own function
  /// that starts with no lock held; the link adds a caller→lambda edge.
  std::vector<std::string> SpawnedBodies;
};

/// The per-file product.
struct FileIndex {
  std::string Path; ///< Reported (root-stripped) path.
  std::vector<FunctionInfo> Functions;
  /// Allow-annotation coverage, expanded over statement extents
  /// (`line -> rules`), so linked findings honour annotations.
  std::map<unsigned, std::set<std::string>> AllowLines;
};

/// Indexes \p Source. Never fails; unparseable regions contribute no
/// symbols.
FileIndex buildFileIndex(const std::string &Path, const std::string &Source);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_INDEX_H
