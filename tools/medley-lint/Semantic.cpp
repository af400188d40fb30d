//===-- tools/medley-lint/Semantic.cpp - Interprocedural rules -----------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "medley-lint/Semantic.h"
#include "medley-lint/Cache.h"
#include "medley-lint/Internal.h"

#include "support/Fnv.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <set>
#include <string_view>
#include <tuple>

using namespace medley::lint;

namespace {

/// L7–L9 look only at the product tree; tests/benches/apps allocate and
/// log freely.
bool inScope(const CallGraph &G, size_t Node) {
  FileKind K = G.Files[G.Nodes[Node].FileId].Kind;
  return K == FileKind::Src || K == FileKind::SrcSupport;
}

Finding makeFinding(const CallGraph &G, size_t FileId, unsigned Line,
                    unsigned Col, const char *Rule, std::string Message,
                    std::string SourceLine) {
  Finding F;
  F.File = G.Files[FileId].Path;
  F.Line = Line;
  F.Col = Col;
  F.Rule = Rule;
  F.Message = std::move(Message);
  F.SourceLine = std::move(SourceLine);
  return F;
}

//===----------------------------------------------------------------------===//
// L7: hotpath-escape
//===----------------------------------------------------------------------===//

void ruleHotpathEscape(const CallGraph &G, std::vector<Finding> &Out) {
  // Best (shortest, then lexicographically smallest) entry path per
  // allocating node. Nodes iterate in Qual order, so this is
  // deterministic at any phase-1 schedule.
  struct Best {
    size_t Depth = static_cast<size_t>(-1);
    std::string Path;
  };
  std::map<size_t, Best> BestByNode;

  for (size_t E = 0; E < G.Nodes.size(); ++E) {
    if (!inScope(G, E) || !isDecisionEntry(G.Nodes[E]))
      continue;
    // BFS from the entry with parent pointers for path reconstruction.
    std::vector<size_t> Parent(G.Nodes.size(), static_cast<size_t>(-1));
    std::vector<size_t> Depth(G.Nodes.size(), static_cast<size_t>(-1));
    std::deque<size_t> Queue;
    Depth[E] = 0;
    Queue.push_back(E);
    while (!Queue.empty()) {
      size_t N = Queue.front();
      Queue.pop_front();
      if (!G.Nodes[N].Allocs.empty()) {
        std::string Path;
        for (size_t At = N;; At = Parent[At]) {
          Path = G.Nodes[At].Qual + (Path.empty() ? "" : " -> " + Path);
          if (At == E)
            break;
        }
        Best &B = BestByNode[N];
        if (Depth[N] < B.Depth || (Depth[N] == B.Depth && Path < B.Path)) {
          B.Depth = Depth[N];
          B.Path = Path;
        }
      }
      for (size_t Succ : G.Edges[N]) {
        if (!inScope(G, Succ) || Depth[Succ] != static_cast<size_t>(-1))
          continue;
        Depth[Succ] = Depth[N] + 1;
        Parent[Succ] = N;
        Queue.push_back(Succ);
      }
    }
  }

  for (const auto &[NodeId, B] : BestByNode) {
    const CallGraph::Node &N = G.Nodes[NodeId];
    for (const auto &[A, FileId] : N.Allocs) {
      if (G.allowedAt(FileId, A.Line, RuleHotpathEscape))
        continue;
      Out.push_back(makeFinding(
          G, FileId, A.Line, A.Col, RuleHotpathEscape,
          A.What + " reachable from a decision entry point via " + B.Path +
              " — the steady-state decision path must not allocate "
              "(DESIGN.md §11)",
          A.LineText));
    }
  }
}

//===----------------------------------------------------------------------===//
// L8: lock-order
//===----------------------------------------------------------------------===//

/// Calls that park the calling thread. Condition-variable waits are
/// deliberately absent: they release the lock while blocked.
bool isBlockingCallName(const std::string &S) {
  return S == "join" || S == "sleep_for" || S == "sleep_until" ||
         S == "usleep" || S == "sleep" || S == "system" || S == "parallelFor";
}

void ruleLockOrder(const CallGraph &G, std::vector<Finding> &Out) {
  // Locks each node (transitively) acquires, for the interprocedural
  // held-across-call edges. Plain fixed point; the graph is small.
  std::vector<std::set<std::string>> Acq(G.Nodes.size());
  for (size_t I = 0; I < G.Nodes.size(); ++I)
    if (inScope(G, I))
      for (const auto &[Q, FileId] : G.Nodes[I].Acquires) {
        (void)FileId;
        Acq[I].insert(Q.Name);
      }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < G.Nodes.size(); ++I) {
      if (!inScope(G, I))
        continue;
      for (size_t Succ : G.Edges[I]) {
        if (!inScope(G, Succ))
          continue;
        for (const std::string &L : Acq[Succ])
          if (Acq[I].insert(L).second)
            Changed = true;
      }
    }
  }

  // The global acquisition-order graph: ordered edges with their first
  // witness site (deterministic: nodes in Qual order, sites in body
  // order, files sorted at link time).
  struct Site {
    size_t FileId;
    unsigned Line;
    std::string LineText;
  };
  std::map<std::pair<std::string, std::string>, Site> EdgeSites;
  std::map<std::string, std::set<std::string>> Adj;
  auto addEdge = [&](const std::string &A, const std::string &B, size_t FileId,
                     unsigned Line, const std::string &LineText) {
    if (A == B)
      return;
    Adj[A].insert(B);
    EdgeSites.emplace(std::make_pair(A, B), Site{FileId, Line, LineText});
  };

  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    if (!inScope(G, I))
      continue;
    const CallGraph::Node &N = G.Nodes[I];
    for (const auto &[E, FileId] : N.LockEdges)
      addEdge(E.First, E.Second, FileId, E.Line, E.LineText);
    for (const auto &[CS, FileId] : N.Calls) {
      if (CS.HeldLocks.empty())
        continue;
      for (size_t Target : resolveCall(G, N, CS)) {
        if (!inScope(G, Target))
          continue;
        for (const std::string &L : Acq[Target])
          for (const std::string &H : CS.HeldLocks)
            addEdge(H, L, FileId, CS.Line, CS.LineText);
      }
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
        G, S.FileId, S.Line, 1, RuleLockOrder,
        "lock-order cycle: '" + B + "' acquired while holding '" + A +
            "' here, but elsewhere the order reverses (" + Cycle +
            ") — potential deadlock; pick one global order or use "
            "std::scoped_lock",
        S.LineText));
  }

  // Locks held across blocking calls.
  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    if (!inScope(G, I))
      continue;
    for (const auto &[CS, FileId] : G.Nodes[I].Calls) {
      if (CS.HeldLocks.empty() || !isBlockingCallName(CS.Name))
        continue;
      if (G.allowedAt(FileId, CS.Line, RuleLockOrder))
        continue;
      Out.push_back(makeFinding(
          G, FileId, CS.Line, CS.Col, RuleLockOrder,
          "lock '" + CS.HeldLocks.front() + "' held across blocking call '" +
              CS.Name + "' — other threads stall for the full wait; release "
                        "the lock first",
          CS.LineText));
    }
  }
}

//===----------------------------------------------------------------------===//
// L9: determinism-taint
//===----------------------------------------------------------------------===//

void ruleDeterminismTaint(const CallGraph &G, std::vector<Finding> &Out) {
  // Per-node tainted locals plus a global "returns tainted" bit,
  // iterated to a fixed point so taint laundered through a helper two
  // functions deep still reaches the sink check.
  std::vector<std::set<std::string>> Tainted(G.Nodes.size());
  std::vector<char> RetTainted(G.Nodes.size(), 0);

  auto callReturnsTainted = [&](const std::string &Name) {
    auto [Lo, Hi] = G.ByName.equal_range(Name);
    for (auto It = Lo; It != Hi; ++It)
      if (inScope(G, It->second) && RetTainted[It->second])
        return true;
    return false;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < G.Nodes.size(); ++I) {
      if (!inScope(G, I))
        continue;
      for (const TaintFlow &F : G.Nodes[I].Flows) {
        bool Src = F.HasSource;
        for (const std::string &V : F.RhsVars)
          Src = Src || Tainted[I].count(V);
        for (const std::string &C : F.RhsCalls)
          Src = Src || callReturnsTainted(C);
        if (!Src)
          continue;
        if (F.Lhs == "<return>") {
          if (!RetTainted[I]) {
            RetTainted[I] = 1;
            Changed = true;
          }
        } else if (Tainted[I].insert(F.Lhs).second) {
          Changed = true;
        }
      }
    }
  }

  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    if (!inScope(G, I))
      continue;
    for (const auto &[S, FileId] : G.Nodes[I].Sinks) {
      std::string Reason;
      if (S.HasSource) {
        Reason = "a direct entropy/wall-clock source in the argument";
      } else {
        for (const std::string &V : S.ArgVars)
          if (Tainted[I].count(V)) {
            Reason = "tainted variable '" + V + "'";
            break;
          }
        if (Reason.empty())
          for (const std::string &C : S.ArgCalls)
            if (callReturnsTainted(C)) {
              Reason = "call '" + C + "' whose result carries taint";
              break;
            }
      }
      if (Reason.empty())
        continue;
      if (G.allowedAt(FileId, S.Line, RuleDeterminismTaint))
        continue;
      Out.push_back(makeFinding(
          G, FileId, S.Line, S.Col, RuleDeterminismTaint,
          "entropy/wall-clock taint reaches sink '" + S.Sink + "' (" + Reason +
              ") — seeds and trace output must be deterministic; derive "
              "them from the experiment seed or annotate the sink",
          S.LineText));
    }
  }
}

//===----------------------------------------------------------------------===//
// L10–L12 shared: destination resolution
//===----------------------------------------------------------------------===//

/// What a summary write/store destination resolves to. The CFG builder
/// only proves "not a local"; whether the name is actually a declared
/// field or namespace-scope global — and whether it is atomic or
/// mutex-typed — is a whole-project question answered here.
struct DestInfo {
  bool Resolved = false;
  bool Guarded = false; ///< Every candidate declaration is atomic/mutex.
};

DestInfo resolveDest(const CallGraph &G, const CallGraph::Node &N,
                     const std::string &Base, const std::string &Last) {
  DestInfo D;
  if (Base.empty() || Base == "this") {
    // Bare name / explicit this: a field of the writer's own class,
    // else a global. Unresolved names (locals the builder could not
    // prove, macros) are skipped rather than guessed at.
    auto It = G.Fields.end();
    if (!N.Class.empty())
      It = G.Fields.find({N.Class, Last});
    if (It == G.Fields.end() && Base.empty())
      It = G.Fields.find({std::string(), Last});
    if (It == G.Fields.end())
      return D;
    D.Resolved = true;
    D.Guarded = It->second.Atomic || It->second.Mutex;
    return D;
  }
  // A chain `A.B...`: the base must itself be a field/global; the final
  // member is then looked up by name across every indexed class (the
  // base's type is unknown at token level). All-guarded candidates
  // count as guarded.
  auto BaseIt = G.Fields.end();
  if (!N.Class.empty())
    BaseIt = G.Fields.find({N.Class, Base});
  if (BaseIt == G.Fields.end())
    BaseIt = G.Fields.find({std::string(), Base});
  if (BaseIt == G.Fields.end())
    return D;
  bool Any = false;
  bool AllGuarded = true;
  for (const auto &[Key, FD] : G.Fields)
    if (Key.second == Last) {
      Any = true;
      AllGuarded = AllGuarded && (FD.Atomic || FD.Mutex);
    }
  if (!Any)
    return D;
  D.Resolved = true;
  D.Guarded = AllGuarded;
  return D;
}

//===----------------------------------------------------------------------===//
// L10: cross-thread-write
//===----------------------------------------------------------------------===//

/// Named methods that execute on worker threads even though their spawn
/// site is out of analytical reach: the fleet engine's run() drives each
/// of these from the lambda it hands to ThreadPool::parallelFor, one
/// shard range per worker (DESIGN.md §16), so writes reachable from them
/// race exactly as if they sat in the lambda body itself. Anchoring on
/// the names keeps coverage when the call is made through a pointer or
/// wrapper the resolver cannot follow.
bool isShardTaskRoot(const CallGraph::Node &N) {
  return N.Class == "FleetEngine" &&
         (N.Name == "stepShard" || N.Name == "drainInbox" ||
          N.Name == "runChurn");
}

void ruleCrossThreadWrite(const CallGraph &G, std::vector<Finding> &Out) {
  // Best (shortest, then lexicographically smallest) path from a
  // thread-task body to each node with unguarded writes. The walk only
  // follows calls made with no lock held and on a non-local receiver: a
  // call into an object the task constructed itself cannot race.
  struct Best {
    size_t Depth = static_cast<size_t>(-1);
    std::string Path;
  };
  std::map<size_t, Best> BestByNode;

  for (size_t E = 0; E < G.Nodes.size(); ++E) {
    if (!inScope(G, E) ||
        !(G.Nodes[E].IsThreadBody || isShardTaskRoot(G.Nodes[E])))
      continue;
    std::vector<size_t> Parent(G.Nodes.size(), static_cast<size_t>(-1));
    std::vector<size_t> Depth(G.Nodes.size(), static_cast<size_t>(-1));
    std::deque<size_t> Queue;
    Depth[E] = 0;
    Queue.push_back(E);
    while (!Queue.empty()) {
      size_t N = Queue.front();
      Queue.pop_front();
      if (!G.Nodes[N].Writes.empty()) {
        std::string Path;
        for (size_t At = N;; At = Parent[At]) {
          Path = G.Nodes[At].Qual + (Path.empty() ? "" : " -> " + Path);
          if (At == E)
            break;
        }
        Best &B = BestByNode[N];
        if (Depth[N] < B.Depth || (Depth[N] == B.Depth && Path < B.Path)) {
          B.Depth = Depth[N];
          B.Path = Path;
        }
      }
      auto Visit = [&](size_t Succ) {
        if (!inScope(G, Succ) || Depth[Succ] != static_cast<size_t>(-1))
          return;
        Depth[Succ] = Depth[N] + 1;
        Parent[Succ] = N;
        Queue.push_back(Succ);
      };
      for (const FlowCall &FC : G.Nodes[N].FlowCalls) {
        if (!FC.LockFree || FC.LocalRecv)
          continue;
        CallSite CS;
        CS.Name = FC.Name;
        CS.Qualifier = FC.Qualifier;
        CS.IsMember = FC.IsMember;
        for (size_t Succ : resolveCall(G, G.Nodes[N], CS))
          Visit(Succ);
      }
      // A task that spawns further tasks keeps everything on-thread.
      for (const std::string &Body : G.Nodes[N].SpawnedBodies) {
        auto It = G.ByQual.find(Body);
        if (It != G.ByQual.end())
          Visit(It->second);
      }
    }
  }

  for (const auto &[NodeId, B] : BestByNode) {
    const CallGraph::Node &N = G.Nodes[NodeId];
    for (const auto &[W, FileId] : N.Writes) {
      DestInfo D = resolveDest(G, N, W.Base, W.Last);
      if (!D.Resolved || D.Guarded)
        continue;
      if (G.allowedAt(FileId, W.Line, RuleCrossThreadWrite))
        continue;
      Out.push_back(makeFinding(
          G, FileId, W.Line, W.Col, RuleCrossThreadWrite,
          "write to '" + W.Lhs + "' with no lock held on a path reachable "
              "from a thread-task body (" + B.Path + ") — the destination "
              "is a non-atomic field/global, so concurrent tasks race; "
              "guard the write or make it std::atomic (DESIGN.md §15)",
          W.LineText));
    }
  }
}

//===----------------------------------------------------------------------===//
// L12: arena-escape
//===----------------------------------------------------------------------===//

void ruleArenaEscape(const CallGraph &G, std::vector<Finding> &Out) {
  // Arena ids each node (transitively) resets, so "held across a call
  // that resets the matching arena" sees resets buried in callees.
  std::vector<std::set<std::string>> Resets(G.Nodes.size());
  for (size_t I = 0; I < G.Nodes.size(); ++I)
    if (inScope(G, I))
      Resets[I].insert(G.Nodes[I].ResetArenas.begin(),
                       G.Nodes[I].ResetArenas.end());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < G.Nodes.size(); ++I) {
      if (!inScope(G, I))
        continue;
      for (size_t Succ : G.Edges[I]) {
        if (!inScope(G, Succ))
          continue;
        for (const std::string &A : Resets[Succ])
          if (Resets[I].insert(A).second)
            Changed = true;
      }
    }
  }

  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    if (!inScope(G, I))
      continue;
    const CallGraph::Node &N = G.Nodes[I];
    for (const auto &[R, FileId] : N.Retentions) {
      if (R.Origin.rfind("arena:", 0) != 0)
        continue;
      std::string ArenaId = R.Origin.substr(6);
      if (G.allowedAt(FileId, R.Line, RuleArenaEscape))
        continue;
      switch (R.K) {
      case RetentionSite::StoreTo: {
        if (!resolveDest(G, N, R.Base, R.Last).Resolved)
          break;
        Out.push_back(makeFinding(
            G, FileId, R.Line, R.Col, RuleArenaEscape,
            "arena-backed pointer '" + R.Var + "' (from '" + ArenaId +
                "') stored into a field/global — the storage is bulk-"
                "freed at the arena's next reset(), leaving a dangling "
                "pointer; copy the data out or allocate it off-arena "
                "(DESIGN.md §15)",
            R.LineText));
        break;
      }
      case RetentionSite::ReturnFrom:
        Out.push_back(makeFinding(
            G, FileId, R.Line, R.Col, RuleArenaEscape,
            "arena-backed value" +
                (R.Var == "<result>" ? std::string()
                                     : " '" + R.Var + "'") +
                " (from '" + ArenaId + "') returned to the caller — "
                "arena storage is tick-scoped and dies at reset(); "
                "return an owned copy instead (DESIGN.md §15)",
            R.LineText));
        break;
      case RetentionSite::UseAfterReset:
        Out.push_back(makeFinding(
            G, FileId, R.Line, R.Col, RuleArenaEscape,
            "arena-backed pointer '" + R.Var + "' used after '" +
                ArenaId + "' was reset() on at least one path — the "
                "storage has been bulk-freed; reorder the reset or "
                "re-derive the pointer (DESIGN.md §15)",
            R.LineText));
        break;
      case RetentionSite::AcrossCall: {
        CallSite CS;
        CS.Name = R.Callee;
        CS.Qualifier = R.CalleeQual;
        CS.IsMember = R.CalleeMember;
        bool ResetsIt = false;
        for (size_t T : resolveCall(G, N, CS))
          if (inScope(G, T) && Resets[T].count(ArenaId)) {
            ResetsIt = true;
            break;
          }
        if (!ResetsIt)
          break;
        Out.push_back(makeFinding(
            G, FileId, R.Line, R.Col, RuleArenaEscape,
            "arena-backed pointer '" + R.Var + "' still live across '" +
                R.Callee + "', which resets '" + ArenaId +
                "' — every later use reads bulk-freed storage; finish "
                "with the pointer before the reset (DESIGN.md §15)",
            R.LineText));
        break;
      }
      default:
        break;
      }
    }
  }
}

} // namespace

bool medley::lint::isDecisionEntry(const CallGraph::Node &N) {
  auto EndsWith = [](const std::string &S, const char *Suffix) {
    std::string Suf = Suffix;
    return S.size() >= Suf.size() &&
           S.compare(S.size() - Suf.size(), Suf.size(), Suf) == 0;
  };
  if (N.Class == "MixtureOfExperts")
    return N.Name != N.Class && N.Name != "~" + N.Class; // not ctor/dtor
  if (EndsWith(N.Class, "Selector"))
    return N.Name == "select" || N.Name == "choose" || N.Name == "update" ||
           N.Name == "blendWeights" || N.Name == "gate";
  if (N.Name == "buildFeatures" &&
      N.Qual.find("policy::") != std::string::npos)
    return true;
  // The tick kernels: the per-tick reductions, the table compaction and
  // the steady pass's rate refresh (Task::refreshRate and the activeRate
  // it dispatches to) run once per simulated tick, so any allocation
  // reachable from them multiplies by the tick count. Arena-backed staging
  // (the amortized chunk growth inside support::Arena and the sticky
  // growth in TaskTable::adopt) carries explicit allow(hotpath-escape)
  // rationales at the allocation sites instead of an entry-list carve-out.
  if (N.Class == "TaskTable")
    return N.Name == "compact";
  if (N.Name == "refreshRate" || N.Name == "activeRate")
    return true;
  // The fleet engine's steady tick loop (DESIGN.md §16): stepShard runs
  // once per shard per tick over 10^5+ tenants, so it inherits the
  // zero-allocation contract of Simulation::step, which it wraps. The
  // round-boundary paths (drainInbox, runChurn) materialize tenants and
  // are deliberately NOT entries. The fixed-bucket latency recorder sits
  // inside the timed window of every tick, so it is held to the same bar.
  if (N.Class == "FleetEngine")
    return N.Name == "stepShard";
  if (N.Class == "LatencyHistogram")
    return N.Name == "record" || N.Name == "merge";
  return N.Class == "Simulation" &&
         (N.Name == "step" || N.Name == "recomputeTickState" ||
          N.Name == "runnableThreads");
}

std::vector<Finding> medley::lint::runSemanticRules(const CallGraph &G) {
  std::vector<Finding> Out;
  ruleHotpathEscape(G, Out);
  ruleLockOrder(G, Out);
  ruleDeterminismTaint(G, Out);
  ruleCrossThreadWrite(G, Out);
  ruleArenaEscape(G, Out);
  return Out;
}

AnalyzeResult medley::lint::analyzeSources(const std::vector<SourceFile> &Files,
                                           const AnalyzeOptions &Opts) {
  AnalyzeResult R;

  LintCache Cache;
  Cache.setFingerprint(cacheFingerprint(Opts.FingerprintSalt));
  bool Loaded = !Opts.CachePath.empty() && Cache.load(Opts.CachePath);

  // One slot per file. Phase 1 writes each index where the link reads
  // it, so no index is copied between the phases.
  std::vector<std::vector<Finding>> TokenFindings(Files.size());
  std::vector<FileIndex> Indexes(Files.size());
  std::vector<unsigned long long> Hashes(Files.size(), 0);
  std::atomic<size_t> Hits{0};

  // Phase 1, dynamically scheduled over files. Every slot is written by
  // exactly one body invocation, and the merge below walks slots in
  // input order — the output cannot depend on the schedule.
  support::ThreadPool Pool(Opts.Jobs);
  Pool.parallelFor(Files.size(), [&](size_t I) {
    const SourceFile &SF = Files[I];
    Hashes[I] = support::fnv1aString(SF.Source);
    if (Cache.lookup(SF.Path, Hashes[I], TokenFindings[I], Indexes[I])) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    TokenFindings[I] = lintSource(SF.Path, SF.Source);
    Indexes[I] = buildFileIndex(SF.Path, SF.Source);
  });
  R.CacheHits = Hits.load();

  for (const std::vector<Finding> &Fs : TokenFindings)
    R.Findings.insert(R.Findings.end(), Fs.begin(), Fs.end());

  if (Opts.Semantic) {
    R.Graph = linkCallGraph(Indexes);
    std::vector<Finding> Semantic = runSemanticRules(R.Graph);
    R.Findings.insert(R.Findings.end(), Semantic.begin(), Semantic.end());
  }

  std::sort(R.Findings.begin(), R.Findings.end(),
            [](const Finding &A, const Finding &B) {
              return std::tie(A.File, A.Line, A.Col, A.Rule, A.Message) <
                     std::tie(B.File, B.Line, B.Col, B.Rule, B.Message);
            });

  if (Opts.CachePath.empty())
    return R;
  // When every file hit and the cache holds no other path, the rewrite
  // would carry exactly the entries just read: keep the file as it is.
  if (Loaded && R.CacheHits == Files.size()) {
    std::set<std::string_view> Paths;
    for (const SourceFile &SF : Files)
      Paths.insert(SF.Path);
    if (Paths.size() == Cache.size())
      return R;
  }
  // Otherwise a full rewrite: entries for vanished files age out.
  std::map<std::string, CacheEntry> Entries;
  for (size_t I = 0; I < Files.size(); ++I)
    Entries[Files[I].Path] = {Hashes[I], std::move(TokenFindings[I]),
                              std::move(Indexes[I])};
  Cache.save(Opts.CachePath, Entries);
  return R;
}
