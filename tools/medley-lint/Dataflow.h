//===-- tools/medley-lint/Dataflow.h - Worklist dataflow solver -*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small worklist dataflow framework over FunctionCfg (DESIGN.md
/// §15). A Domain supplies the lattice: a Value type, the boundary fact
/// (function entry for forward problems, exit for backward), the
/// initial fact for all other blocks (the meet identity), a meet, and a
/// per-event transfer. solveForward/solveBackward iterate to a fixpoint
/// with a deterministic sweep order, so results are identical at any
/// `--jobs`.
///
/// Three concrete domains live in Dataflow.cpp and feed the L10–L12
/// summaries:
///  - must-held locks   (forward,  meet = intersection)
///  - tracked pointers  (forward,  meet = union of origin maps)
///  - liveness          (backward, meet = union)
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_DATAFLOW_H
#define MEDLEY_TOOLS_LINT_DATAFLOW_H

#include "medley-lint/Cfg.h"
#include "medley-lint/Index.h"

namespace medley::lint {

/// Fixpoint cap: CFGs are per-function and small; any lattice here has
/// finite height, but a sweep cap keeps a builder bug from hanging.
inline constexpr int MaxDataflowSweeps = 100;

/// Forward problem: returns the fact at each block *entry*.
/// Domain requirements:
///   using Value;
///   Value boundary() const;                       // entry fact
///   Value init() const;                           // meet identity
///   bool meetInto(Value &Into, const Value &From) const;
///   void transfer(const CfgStmt &S, Value &V) const;
template <typename Domain>
std::vector<typename Domain::Value> solveForward(const FunctionCfg &G,
                                                 const Domain &D) {
  std::vector<typename Domain::Value> In(G.Blocks.size(), D.init());
  if (G.Blocks.empty())
    return In;
  In[G.Entry] = D.boundary();
  for (int Sweep = 0; Sweep < MaxDataflowSweeps; ++Sweep) {
    bool Changed = false;
    for (unsigned B = 0; B < G.Blocks.size(); ++B) {
      typename Domain::Value Out = In[B];
      for (const CfgStmt &S : G.Blocks[B].Stmts)
        D.transfer(S, Out);
      for (unsigned Succ : G.Blocks[B].Succs)
        Changed |= D.meetInto(In[Succ], Out);
    }
    if (!Changed)
      break;
  }
  return In;
}

/// Backward problem: returns the fact at each block *exit* (e.g. the
/// live-out set). The transfer is applied to statements in reverse.
template <typename Domain>
std::vector<typename Domain::Value> solveBackward(const FunctionCfg &G,
                                                  const Domain &D) {
  std::vector<typename Domain::Value> Out(G.Blocks.size(), D.init());
  if (G.Blocks.empty())
    return Out;
  Out[G.Exit] = D.boundary();
  for (int Sweep = 0; Sweep < MaxDataflowSweeps; ++Sweep) {
    bool Changed = false;
    for (unsigned B = G.Blocks.size(); B-- > 0;) {
      typename Domain::Value In = Out[B];
      const std::vector<CfgStmt> &Stmts = G.Blocks[B].Stmts;
      for (size_t S = Stmts.size(); S-- > 0;)
        D.transfer(Stmts[S], In);
      for (unsigned Pred : G.Blocks[B].Preds)
        Changed |= D.meetInto(Out[Pred], In);
    }
    if (!Changed)
      break;
  }
  return Out;
}

/// Runs the three analyses over \p Cfg and fills \p Fn's flow
/// summaries: UnguardedWrites (must-held empty at a field/global
/// write), RetentionSites (tracked arena pointers stored,
/// returned, used after reset, or live across calls), FlowCalls
/// (per-call must-lock + receiver locality for the thread-reachability
/// walk), and ResetArenas. Deterministic: summaries are sorted.
void computeFlowSummaries(const FunctionCfg &Cfg, FunctionInfo &Fn);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_DATAFLOW_H
