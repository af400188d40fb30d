//===-- tools/medley-lint/CallGraph.cpp - Linked project graph -----------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "medley-lint/CallGraph.h"

#include <algorithm>

using namespace medley::lint;

namespace {

/// True when \p Qual ends with the written suffix \p Qualifier::Name on
/// a component boundary: `linalg::add` matches `medley::linalg::add`.
bool qualSuffixMatches(const std::string &Qual, const std::string &Qualifier,
                       const std::string &Name) {
  std::string Suffix = Qualifier.empty() ? Name : Qualifier + "::" + Name;
  if (Qual == Suffix)
    return true;
  if (Qual.size() < Suffix.size() + 2)
    return false;
  if (Qual.compare(Qual.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
    return false;
  return Qual.compare(Qual.size() - Suffix.size() - 2, 2, "::") == 0;
}

} // namespace

bool CallGraph::allowedAt(size_t FileId, unsigned Line,
                          const std::string &Rule) const {
  if (FileId >= Files.size())
    return false;
  auto It = Files[FileId].AllowLines.find(Line);
  return It != Files[FileId].AllowLines.end() &&
         (It->second.count(Rule) || It->second.count("all"));
}

CallGraph medley::lint::linkCallGraph(std::vector<FileIndex> Indexes) {
  CallGraph G;
  // Deterministic merge regardless of the order the files came in. The
  // indexes are ours, so their sites move into the nodes.
  std::sort(Indexes.begin(), Indexes.end(),
            [](const FileIndex &A, const FileIndex &B) {
              return A.Path < B.Path;
            });
  for (FileIndex &Ix : Indexes) {
    size_t FileId = G.Files.size();
    G.Files.push_back({Ix.Path, std::move(Ix.AllowLines)});
    for (FunctionInfo &Fn : Ix.Functions) {
      auto It = G.ByQual.find(Fn.Qual);
      if (It == G.ByQual.end()) {
        CallGraph::Node N;
        N.Qual = Fn.Qual;
        N.Name = Fn.Name;
        N.Class = Fn.Class;
        It = G.ByQual.emplace(Fn.Qual, G.Nodes.size()).first;
        G.Nodes.push_back(std::move(N));
      }
      CallGraph::Node &N = G.Nodes[It->second];
      for (CallSite &C : Fn.Calls)
        N.Calls.emplace_back(std::move(C), FileId);
      for (std::string &Q : Fn.Acquires)
        N.Acquires.push_back(std::move(Q));
      for (LockEdge &E : Fn.LockEdges)
        N.LockEdges.emplace_back(std::move(E), FileId);
      for (std::string &Body : Fn.SpawnedBodies)
        N.SpawnedBodies.push_back(std::move(Body));
    }
  }

  // Sort nodes by qualified name and rebuild the id maps so the graph
  // shape is independent of file order too.
  std::sort(G.Nodes.begin(), G.Nodes.end(),
            [](const CallGraph::Node &A, const CallGraph::Node &B) {
              return A.Qual < B.Qual;
            });
  G.ByQual.clear();
  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    G.ByQual.emplace(G.Nodes[I].Qual, I);
    G.ByName.emplace(G.Nodes[I].Name, I);
  }

  // Resolve every call site once; Edges holds the per-node union. A
  // spawned lambda body is an explicit edge from its defining function
  // (the spawn call is not a name-resolvable call site).
  G.Edges.assign(G.Nodes.size(), {});
  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    std::vector<size_t> &Out = G.Edges[I];
    for (const auto &[CS, FileId] : G.Nodes[I].Calls) {
      (void)FileId;
      std::vector<size_t> Targets = resolveCall(G, G.Nodes[I], CS);
      Out.insert(Out.end(), Targets.begin(), Targets.end());
    }
    for (const std::string &Body : G.Nodes[I].SpawnedBodies) {
      auto It = G.ByQual.find(Body);
      if (It != G.ByQual.end())
        Out.push_back(It->second);
    }
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  }
  return G;
}

std::vector<size_t> medley::lint::resolveCall(const CallGraph &G,
                                              const CallGraph::Node &From,
                                              const CallSite &CS) {
  std::vector<size_t> Out;
  auto [Lo, Hi] = G.ByName.equal_range(CS.Name);
  for (auto It = Lo; It != Hi; ++It) {
    const CallGraph::Node &Cand = G.Nodes[It->second];
    if (&Cand == &From)
      continue; // Self-recursion adds nothing to reachability.
    if (CS.IsMember) {
      if (!Cand.Class.empty())
        Out.push_back(It->second);
    } else if (!CS.Qualifier.empty()) {
      if (qualSuffixMatches(Cand.Qual, CS.Qualifier, CS.Name))
        Out.push_back(It->second);
    } else {
      if (Cand.Class.empty() ||
          (!From.Class.empty() && Cand.Class == From.Class))
        Out.push_back(It->second);
    }
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}
