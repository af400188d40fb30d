//===-- tools/medley-lint/Dataflow.cpp - Concrete dataflow domains -------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three concrete lattices behind the L10–L12 summaries
/// (DESIGN.md §15), plus the recording pass that replays each block
/// under the fixpoint facts and emits the per-function summaries:
///
///  - must-held locks: forward, meet = set intersection with a Top
///    ("unreached") element, so a write is "unguarded" only when a
///    *reachable* path arrives with no lock held.
///  - tracked pointers: forward, meet = union of var → origin maps;
///    the origin is "arena:<id>" (bump-allocator storage, with a reset
///    flag once the matching arena's reset() is seen on the path).
///  - liveness: backward, meet = union — which tracked locals are
///    still read after a program point; it decides the
///    held-across-call retention sites.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Dataflow.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

using namespace medley::lint;

namespace {

//===----------------------------------------------------------------------===//
// Must-held locks (forward)
//===----------------------------------------------------------------------===//

struct MustLockValue {
  bool Top = true; ///< Not yet reached; identity of the intersection.
  std::set<std::string> Locks;
};

struct MustLockDomain {
  using Value = MustLockValue;
  Value boundary() const { return {false, {}}; }
  Value init() const { return {true, {}}; }
  bool meetInto(Value &Into, const Value &From) const {
    if (From.Top)
      return false;
    if (Into.Top) {
      Into = From;
      return true;
    }
    std::set<std::string> Inter;
    std::set_intersection(Into.Locks.begin(), Into.Locks.end(),
                          From.Locks.begin(), From.Locks.end(),
                          std::inserter(Inter, Inter.begin()));
    if (Inter == Into.Locks)
      return false;
    Into.Locks = std::move(Inter);
    return true;
  }
  void transfer(const CfgStmt &S, Value &V) const {
    if (S.K == CfgStmt::Acquire)
      V.Locks.insert(S.Id);
    else if (S.K == CfgStmt::Release)
      V.Locks.erase(S.Id);
  }
};

//===----------------------------------------------------------------------===//
// Tracked pointers (forward)
//===----------------------------------------------------------------------===//

struct TrackInfo {
  std::string Origin;
  bool Reset = false;
};

struct TrackDomain {
  /// var → where its pointee came from. Merging two origins keeps the
  /// lexicographic minimum (deterministic) and ORs the reset flag.
  using Value = std::map<std::string, TrackInfo>;
  Value boundary() const { return {}; }
  Value init() const { return {}; }
  bool meetInto(Value &Into, const Value &From) const {
    bool Changed = false;
    for (const auto &KV : From) {
      auto It = Into.find(KV.first);
      if (It == Into.end()) {
        Into.insert(KV);
        Changed = true;
        continue;
      }
      if (KV.second.Origin < It->second.Origin) {
        It->second.Origin = KV.second.Origin;
        Changed = true;
      }
      if (KV.second.Reset && !It->second.Reset) {
        It->second.Reset = true;
        Changed = true;
      }
    }
    return Changed;
  }
  void transfer(const CfgStmt &S, Value &V) const {
    switch (S.K) {
    case CfgStmt::Def: {
      if (!S.Origin.empty()) {
        V[S.Id] = {S.Origin, false};
        return;
      }
      const TrackInfo *Found = nullptr;
      TrackInfo Merged;
      for (const std::string &A : S.Aliases) {
        auto It = V.find(A);
        if (It == V.end())
          continue;
        if (!Found) {
          Merged = It->second;
          Found = &It->second;
          continue;
        }
        if (It->second.Origin < Merged.Origin)
          Merged.Origin = It->second.Origin;
        Merged.Reset |= It->second.Reset;
      }
      if (Found)
        V[S.Id] = Merged;
      else
        V.erase(S.Id);
      return;
    }
    case CfgStmt::ArenaReset: {
      std::string Key = "arena:" + S.Id;
      for (auto &KV : V)
        if (KV.second.Origin == Key)
          KV.second.Reset = true;
      return;
    }
    default:
      return;
    }
  }
};

//===----------------------------------------------------------------------===//
// Liveness (backward)
//===----------------------------------------------------------------------===//

struct LiveDomain {
  using Value = std::set<std::string>;
  Value boundary() const { return {}; }
  Value init() const { return {}; }
  bool meetInto(Value &Into, const Value &From) const {
    bool Changed = false;
    for (const std::string &V : From)
      Changed |= Into.insert(V).second;
    return Changed;
  }
  void transfer(const CfgStmt &S, Value &V) const {
    switch (S.K) {
    case CfgStmt::Def:
      V.erase(S.Id);
      for (const std::string &A : S.Aliases)
        V.insert(A);
      return;
    case CfgStmt::Use:
      V.insert(S.Id);
      return;
    case CfgStmt::Write:
    case CfgStmt::Ret:
      for (const std::string &A : S.Aliases)
        V.insert(A);
      return;
    default:
      return;
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Summary extraction
//===----------------------------------------------------------------------===//

void medley::lint::computeFlowSummaries(const FunctionCfg &Cfg,
                                        FunctionInfo &Fn) {
  if (Cfg.Blocks.empty())
    return;
  MustLockDomain LockD;
  TrackDomain TrackD;
  LiveDomain LiveD;
  std::vector<MustLockValue> LockIn = solveForward(Cfg, LockD);
  std::vector<TrackDomain::Value> TrackIn = solveForward(Cfg, TrackD);
  std::vector<LiveDomain::Value> LiveOut = solveBackward(Cfg, LiveD);

  // One held-across-call site per (var, callee) pair per function.
  std::set<std::pair<std::string, std::string>> AcrossSeen;

  for (unsigned B = 0; B < Cfg.Blocks.size(); ++B) {
    const std::vector<CfgStmt> &Stmts = Cfg.Blocks[B].Stmts;
    MustLockValue Locks = LockIn[B];
    TrackDomain::Value Track = TrackIn[B];

    // Per-statement live-after, from the block's live-out backwards.
    std::vector<LiveDomain::Value> LiveAfter(Stmts.size());
    LiveDomain::Value L = LiveOut[B];
    for (size_t S = Stmts.size(); S-- > 0;) {
      LiveAfter[S] = L;
      LiveD.transfer(Stmts[S], L);
    }

    for (size_t SI = 0; SI < Stmts.size(); ++SI) {
      const CfgStmt &S = Stmts[SI];
      bool LockFree = !Locks.Top && Locks.Locks.empty();
      switch (S.K) {
      case CfgStmt::Write: {
        if (LockFree) {
          UnguardedWrite W;
          W.Lhs = S.Id;
          W.Base = S.Base;
          W.Last = S.Last;
          W.Line = S.Line;
          W.Col = S.Col;
          W.LineText = S.LineText;
          Fn.Writes.push_back(std::move(W));
        }
        for (const std::string &A : S.Aliases) {
          auto It = Track.find(A);
          if (It == Track.end())
            continue;
          RetentionSite R;
          R.K = RetentionSite::StoreTo;
          R.Var = A;
          R.Origin = It->second.Origin;
          R.Base = S.Base;
          R.Last = S.Last;
          R.Line = S.Line;
          R.Col = S.Col;
          R.LineText = S.LineText;
          Fn.Retentions.push_back(std::move(R));
        }
        break;
      }
      case CfgStmt::Use: {
        auto It = Track.find(S.Id);
        if (It != Track.end() && It->second.Reset) {
          RetentionSite R;
          R.K = RetentionSite::UseAfterReset;
          R.Var = S.Id;
          R.Origin = It->second.Origin;
          R.Line = S.Line;
          R.Col = S.Col;
          R.LineText = S.LineText;
          Fn.Retentions.push_back(std::move(R));
        }
        break;
      }
      case CfgStmt::Call: {
        FlowCall FC;
        FC.Name = S.Id;
        FC.Qualifier = S.Qual;
        FC.IsMember = S.Member;
        FC.LocalRecv = S.LocalRecv;
        FC.LockFree = LockFree;
        FC.Line = S.Line;
        FC.Col = S.Col;
        Fn.FlowCalls.push_back(std::move(FC));
        for (const auto &KV : Track) {
          if (!LiveAfter[SI].count(KV.first))
            continue;
          if (!AcrossSeen.insert({KV.first, S.Id}).second)
            continue;
          RetentionSite R;
          R.K = RetentionSite::AcrossCall;
          R.Var = KV.first;
          R.Origin = KV.second.Origin;
          R.Callee = S.Id;
          R.CalleeQual = S.Qual;
          R.CalleeMember = S.Member;
          R.Line = S.Line;
          R.Col = S.Col;
          R.LineText = S.LineText;
          Fn.Retentions.push_back(std::move(R));
        }
        break;
      }
      case CfgStmt::Ret: {
        if (!S.Origin.empty()) {
          RetentionSite R;
          R.K = RetentionSite::ReturnFrom;
          R.Var = "<result>";
          R.Origin = S.Origin;
          R.Line = S.Line;
          R.Col = S.Col;
          R.LineText = S.LineText;
          Fn.Retentions.push_back(std::move(R));
        }
        for (const std::string &A : S.Aliases) {
          auto It = Track.find(A);
          if (It == Track.end())
            continue;
          RetentionSite R;
          R.K = RetentionSite::ReturnFrom;
          R.Var = A;
          R.Origin = It->second.Origin;
          R.Line = S.Line;
          R.Col = S.Col;
          R.LineText = S.LineText;
          Fn.Retentions.push_back(std::move(R));
        }
        break;
      }
      case CfgStmt::ArenaReset:
        Fn.ResetArenas.push_back(S.Id);
        break;
      default:
        break;
      }
      LockD.transfer(S, Locks);
      TrackD.transfer(S, Track);
    }
  }

  // Deterministic summaries, independent of CFG block numbering.
  auto WriteKey = [](const UnguardedWrite &W) {
    return std::make_tuple(W.Line, W.Col, W.Lhs);
  };
  std::sort(Fn.Writes.begin(), Fn.Writes.end(),
            [&](const UnguardedWrite &A, const UnguardedWrite &B) {
              return WriteKey(A) < WriteKey(B);
            });
  Fn.Writes.erase(std::unique(Fn.Writes.begin(), Fn.Writes.end(),
                              [&](const UnguardedWrite &A,
                                  const UnguardedWrite &B) {
                                return WriteKey(A) == WriteKey(B);
                              }),
                  Fn.Writes.end());

  auto RetKey = [](const RetentionSite &R) {
    return std::make_tuple(R.Line, R.Col, R.K, R.Var, R.Origin, R.Callee);
  };
  std::sort(Fn.Retentions.begin(), Fn.Retentions.end(),
            [&](const RetentionSite &A, const RetentionSite &B) {
              return RetKey(A) < RetKey(B);
            });
  Fn.Retentions.erase(
      std::unique(Fn.Retentions.begin(), Fn.Retentions.end(),
                  [&](const RetentionSite &A, const RetentionSite &B) {
                    return RetKey(A) == RetKey(B);
                  }),
      Fn.Retentions.end());

  auto CallKey = [](const FlowCall &C) {
    return std::make_tuple(C.Line, C.Col, C.Name, C.IsMember);
  };
  std::sort(Fn.FlowCalls.begin(), Fn.FlowCalls.end(),
            [&](const FlowCall &A, const FlowCall &B) {
              return CallKey(A) < CallKey(B);
            });
  Fn.FlowCalls.erase(std::unique(Fn.FlowCalls.begin(), Fn.FlowCalls.end(),
                                 [&](const FlowCall &A, const FlowCall &B) {
                                   return CallKey(A) == CallKey(B);
                                 }),
                     Fn.FlowCalls.end());

  std::sort(Fn.ResetArenas.begin(), Fn.ResetArenas.end());
  Fn.ResetArenas.erase(
      std::unique(Fn.ResetArenas.begin(), Fn.ResetArenas.end()),
      Fn.ResetArenas.end());
}
