//===-- tools/medley-lint/CallGraph.h - Linked project graph ----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The link behind the lock-order rule (L8, DESIGN.md §12): per-file
/// FileIndexes merge into one whole-project call graph. Nodes are
/// qualified names without signatures — overloads collapse onto one
/// node, which over-approximates reachability in exactly the direction
/// the rule wants. Call resolution is name-based:
///
///   - `obj.f(...)` resolves to every method named `f` (a cheap stand-in
///     for virtual dispatch);
///   - `ns::f(...)` resolves to nodes whose qualified name ends in the
///     written suffix;
///   - a bare `f(...)` resolves to same-named methods of the caller's
///     own class plus every free function named `f`.
///
/// Linking is deterministic: indexes are processed in sorted path order
/// and nodes are sorted by qualified name.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_CALLGRAPH_H
#define MEDLEY_TOOLS_LINT_CALLGRAPH_H

#include "medley-lint/Index.h"

namespace medley::lint {

/// The linked whole-project graph.
struct CallGraph {
  /// One source file contributing definitions, with its allow coverage
  /// so linked findings honour annotations without re-reading sources.
  struct FileRef {
    std::string Path;
    std::map<unsigned, std::set<std::string>> AllowLines;
  };

  /// One function (all overloads, all defining files merged). Site
  /// lists carry the id of the file each site came from.
  struct Node {
    std::string Qual;
    std::string Name;
    std::string Class;
    std::vector<std::pair<CallSite, size_t>> Calls;
    std::vector<std::string> Acquires;
    std::vector<std::pair<LockEdge, size_t>> LockEdges;
    std::vector<std::string> SpawnedBodies; ///< Quals of spawned lambdas.
  };

  std::vector<FileRef> Files;
  std::vector<Node> Nodes; ///< Sorted by Qual.
  std::map<std::string, size_t> ByQual;
  std::multimap<std::string, size_t> ByName; ///< Unqualified name → node.
  /// Union of resolved callees per node, sorted and de-duplicated.
  /// Includes explicit parent → spawned-lambda edges.
  std::vector<std::vector<size_t>> Edges;

  /// True when rules named in an allow annotation cover \p Line of
  /// \p FileId ("all" counts).
  bool allowedAt(size_t FileId, unsigned Line, const std::string &Rule) const;
};

/// Links \p Indexes (any order; sorted internally by path) into a graph.
CallGraph linkCallGraph(std::vector<FileIndex> Indexes);

/// Node ids a single call site can reach, sorted. Implements the
/// resolution rules above.
std::vector<size_t> resolveCall(const CallGraph &G, const CallGraph::Node &From,
                                const CallSite &CS);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_CALLGRAPH_H
