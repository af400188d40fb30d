//===-- tools/medley-lint/Cfg.h - Per-function control-flow graph -*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-function control-flow graph over the token stream (DESIGN.md
/// §15): statement-level basic blocks connected by branch/loop/early-
/// return edges, each block holding the dataflow-relevant *events* of
/// its statements (lock acquire/release, local defs and uses, writes
/// through non-local lvalues, calls, arena resets, returns). The CFG is
/// the substrate the worklist framework in Dataflow.h solves over; the
/// fixpoint results become the per-function summaries (UnguardedWrite,
/// RetentionSite, FlowCall) that the interprocedural rules L10–L12
/// consume at link time.
///
/// Like the indexer, the builder is a heuristic reader, not a front
/// end: `if`/`else`, `for`/`while`/`do` (with back edges), `switch`
/// (with fallthrough), `break`/`continue`/`return` are modeled; what it
/// cannot parse degrades to a straight-line block and never crashes.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_CFG_H
#define MEDLEY_TOOLS_LINT_CFG_H

#include "medley-lint/Lint.h"

#include <utility>

namespace medley::lint {

/// One dataflow-relevant event inside a basic block.
struct CfgStmt {
  enum Kind {
    Acquire,    ///< Lock acquired; Id = normalized lock id.
    Release,    ///< Lock released (scope end or .unlock()).
    Def,        ///< Local defined/rebound; Id = var, Origin/Aliases = rhs.
    Use,        ///< Local mentioned as a chain base; Id = var.
    Write,      ///< Non-local lvalue written; Id = chain, Base/Last split.
    Call,       ///< Call site; Id = callee name.
    ArenaReset, ///< `X.reset()`; Id = normalized receiver id.
    Ret,        ///< Return statement; Origin/Aliases = returned value.
  };
  Kind K = Use;
  std::string Id;
  std::string Base;   ///< Write: chain base ("this", ident, or "").
  std::string Last;   ///< Write: last chain component.
  std::string Origin; ///< Def/Ret: direct origin ("arena:<id>").
  std::string Qual;   ///< Call: explicit qualifier as written.
  /// Def: rhs vars whose tracked origin the defined var inherits.
  /// Write/Ret: rhs vars stored/returned in pointer-preserving form.
  std::vector<std::string> Aliases;
  bool Member = false;    ///< Call: `x.f(...)` / `x->f(...)`.
  bool LocalRecv = false; ///< Call: receiver chain base is a local.
  unsigned Line = 0;
  unsigned Col = 0;
  std::string LineText; ///< Trimmed source line (finding anchors only).
};

struct CfgBlock {
  std::vector<CfgStmt> Stmts;
  std::vector<unsigned> Succs;
  std::vector<unsigned> Preds;
};

/// Block 0 is the entry, block 1 the exit; every return edge lands on
/// the exit block. Blocks unreachable from the entry (dead code after a
/// return) simply keep the solver's initial fact.
struct FunctionCfg {
  std::vector<CfgBlock> Blocks;
  unsigned Entry = 0;
  unsigned Exit = 1;
};

/// Context the builder needs from the indexer.
struct CfgBuildContext {
  const std::vector<Token> *Toks = nullptr;
  const std::vector<std::string> *Lines = nullptr;
  std::string ClassName; ///< Enclosing class ("" for free functions).
  /// Pre-seeded locals: parameter names, and for task lambdas the
  /// by-value capture names (a copy is task-local state).
  std::vector<std::string> SeedLocals;
  /// Token ranges to skip entirely — extracted task-lambda bodies,
  /// which get their own CFG under their own FunctionInfo.
  std::vector<std::pair<size_t, size_t>> SkipRanges;
};

/// Builds the CFG for one function body token range [BodyBegin,
/// BodyEnd). Never fails; unparseable regions contribute straight-line
/// blocks.
FunctionCfg buildFunctionCfg(size_t BodyBegin, size_t BodyEnd,
                             const CfgBuildContext &Ctx);

/// Declared parameter names from a `(...)` parameter token range
/// [B, E) (exclusive of the parens). Heuristic: the trailing
/// identifier of each top-level comma-separated declarator.
std::vector<std::string> collectParamNames(const std::vector<Token> &Toks,
                                           size_t B, size_t E);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_CFG_H
