//===-- tools/medley-lint/LockOrder.cpp - L8 over the linked tree --------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// lintTree: the token rules file by file, then the lock-order rule (L8)
/// over the call graph linked from src/. L8 reports lock-acquisition-order
/// cycles, interprocedural ones included, and locks held across blocking
/// calls (DESIGN.md §12).
///
//===----------------------------------------------------------------------===//

#include "medley-lint/CallGraph.h"
#include "medley-lint/Internal.h"

#include <algorithm>
#include <deque>
#include <tuple>

using namespace medley::lint;

namespace {

/// Calls that park the calling thread. Condition-variable waits are
/// deliberately absent: they release the lock while blocked.
bool isBlockingCallName(const std::string &S) {
  return S == "join" || S == "sleep_for" || S == "sleep_until" ||
         S == "usleep" || S == "sleep" || S == "system" || S == "parallelFor";
}

Finding makeFinding(const CallGraph &G, size_t FileId, unsigned Line,
                    unsigned Col, std::string Message) {
  Finding F;
  F.File = G.Files[FileId].Path;
  F.Line = Line;
  F.Col = Col;
  F.Rule = RuleLockOrder;
  F.Message = std::move(Message);
  return F;
}

void ruleLockOrder(const CallGraph &G, std::vector<Finding> &Out) {
  // Locks each node (transitively) acquires, for the interprocedural
  // held-across-call edges. Plain fixed point; the graph is small.
  std::vector<std::set<std::string>> Acq(G.Nodes.size());
  for (size_t I = 0; I < G.Nodes.size(); ++I)
    Acq[I].insert(G.Nodes[I].Acquires.begin(), G.Nodes[I].Acquires.end());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < G.Nodes.size(); ++I)
      for (size_t Succ : G.Edges[I])
        for (const std::string &L : Acq[Succ])
          if (Acq[I].insert(L).second)
            Changed = true;
  }

  // The global acquisition-order graph: ordered edges with their first
  // witness site (deterministic: nodes in Qual order, sites in body
  // order, files sorted at link time).
  struct Site {
    size_t FileId;
    unsigned Line;
  };
  std::map<std::pair<std::string, std::string>, Site> EdgeSites;
  std::map<std::string, std::set<std::string>> Adj;
  auto addEdge = [&](const std::string &A, const std::string &B, size_t FileId,
                     unsigned Line) {
    if (A == B)
      return;
    Adj[A].insert(B);
    EdgeSites.emplace(std::make_pair(A, B), Site{FileId, Line});
  };

  for (const CallGraph::Node &N : G.Nodes) {
    for (const auto &[E, FileId] : N.LockEdges)
      addEdge(E.First, E.Second, FileId, E.Line);
    for (const auto &[CS, FileId] : N.Calls) {
      if (CS.HeldLocks.empty())
        continue;
      for (size_t Target : resolveCall(G, N, CS))
        for (const std::string &L : Acq[Target])
          for (const std::string &H : CS.HeldLocks)
            addEdge(H, L, FileId, CS.Line);
    }
  }

  // Cycle reports: one finding per unordered lock pair, anchored at the
  // (A,B) edge with A < B; the message carries the full return path.
  auto pathBack = [&Adj](const std::string &From,
                         const std::string &To) -> std::vector<std::string> {
    std::map<std::string, std::string> Parent;
    std::deque<std::string> Queue{From};
    Parent[From] = From;
    while (!Queue.empty()) {
      std::string At = Queue.front();
      Queue.pop_front();
      if (At == To) {
        std::vector<std::string> Path{At};
        while (At != From) {
          At = Parent[At];
          Path.insert(Path.begin(), At);
        }
        return Path;
      }
      auto It = Adj.find(At);
      if (It == Adj.end())
        continue;
      for (const std::string &Next : It->second)
        if (!Parent.count(Next)) {
          Parent[Next] = At;
          Queue.push_back(Next);
        }
    }
    return {};
  };

  for (const auto &[Pair, S] : EdgeSites) {
    const auto &[A, B] = Pair;
    if (B < A && Adj[B].count(A))
      continue; // The (B,A) direction carries the report for this pair.
    std::vector<std::string> Back = pathBack(B, A);
    if (Back.empty())
      continue;
    if (G.allowedAt(S.FileId, S.Line, RuleLockOrder))
      continue;
    std::string Cycle = A;
    for (const std::string &Step : Back)
      Cycle += " -> " + Step;
    Out.push_back(makeFinding(
        G, S.FileId, S.Line, 1,
        "lock-order cycle: '" + B + "' acquired while holding '" + A +
            "' here, but elsewhere the order reverses (" + Cycle +
            ") — potential deadlock; pick one global order or use "
            "std::scoped_lock"));
  }

  // Locks held across blocking calls.
  for (const CallGraph::Node &N : G.Nodes)
    for (const auto &[CS, FileId] : N.Calls) {
      if (CS.HeldLocks.empty() || !isBlockingCallName(CS.Name))
        continue;
      if (G.allowedAt(FileId, CS.Line, RuleLockOrder))
        continue;
      Out.push_back(makeFinding(
          G, FileId, CS.Line, CS.Col,
          "lock '" + CS.HeldLocks.front() + "' held across blocking call '" +
              CS.Name + "' — other threads stall for the full wait; release "
                        "the lock first"));
    }
}

} // namespace

std::vector<Finding>
medley::lint::lintTree(const std::vector<SourceFile> &Files) {
  std::vector<Finding> Out;
  // L8 looks only at the product tree; tests, benches and apps may lock
  // as they please.
  std::vector<FileIndex> Indexes;
  for (const SourceFile &F : Files) {
    FileKind Kind = classifyPath(F.Path);
    std::vector<Finding> Token = lintSource(F.Path, F.Source, Kind);
    Out.insert(Out.end(), Token.begin(), Token.end());
    if (Kind == FileKind::Src || Kind == FileKind::SrcSupport)
      Indexes.push_back(buildFileIndex(F.Path, F.Source));
  }
  ruleLockOrder(linkCallGraph(std::move(Indexes)), Out);
  std::sort(Out.begin(), Out.end(), [](const Finding &A, const Finding &B) {
    return std::tie(A.File, A.Line, A.Col, A.Rule, A.Message) <
           std::tie(B.File, B.Line, B.Col, B.Rule, B.Message);
  });
  return Out;
}
