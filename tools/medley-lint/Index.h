//===-- tools/medley-lint/Index.h - Per-file symbol index -------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 1 of the semantic analyzer (DESIGN.md §12): one pass over a
/// translation unit's token stream producing a FileIndex — every
/// function/method definition with its qualified name, and per function
/// the call sites, allocation sites, lock acquisitions and acquisition
/// orderings, and the assignment/return/sink "flows" the determinism
/// taint analysis consumes. FileIndexes are cheap, position-independent
/// values: they serialize into the incremental cache and link into the
/// whole-project CallGraph without re-reading sources.
///
/// Like the token rules, the indexer is a heuristic C++ reader, not a
/// front end: templated call names (`f<T>(..)`) and exotic declarator
/// forms are simply not indexed, which under-approximates the graph but
/// never crashes and keeps the whole-tree pass sub-second.
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
  /// Locks held at this call site (lock-order analysis); empty for the
  /// overwhelmingly common unlocked call.
  std::vector<std::string> HeldLocks;
  /// Trimmed source line, filled only when HeldLocks is non-empty (the
  /// only case that can become a finding and needs a baseline key).
  std::string LineText;
};

/// One site that allocates on the heap: new-expressions, malloc-family
/// and make_unique/make_shared calls, container growth members
/// (push_back/insert/...), std::to_string, and the value-returning
/// linalg helpers (add/sub/scale/hadamard). resize/reserve are
/// deliberately NOT allocation sites: sizing a reused scratch buffer to
/// a sticky capacity is the sanctioned hot-path idiom (DESIGN.md §11)
/// and is gated empirically by AllocationTest's counting allocator
/// instead.
struct AllocSite {
  std::string What; ///< Human label, e.g. "container growth 'push_back'".
  unsigned Line = 0;
  unsigned Col = 0;
  std::string LineText; ///< Trimmed source line (baseline key).
};

/// A lock this function acquires (lock_guard/scoped_lock/unique_lock
/// construction or a raw `.lock()`).
struct LockAcq {
  std::string Name; ///< Normalized lock id, see lockIdFor().
  unsigned Line = 0;
};

/// `Second` acquired while `First` was held, inside one function.
struct LockEdge {
  std::string First;
  std::string Second;
  unsigned Line = 0;    ///< Acquisition site of Second.
  std::string LineText; ///< Trimmed source line at that site.
};

/// One taint flow: `Lhs = f(RhsVars, RhsCalls)` for assignments and
/// initializations, or a return statement when Lhs is "<return>".
struct TaintFlow {
  std::string Lhs;
  std::vector<std::string> RhsVars;
  std::vector<std::string> RhsCalls;
  bool HasSource = false; ///< An entropy/wall-clock source in the rhs.
  unsigned Line = 0;
};

/// A value reaching a determinism-sensitive sink: RNG seeding
/// (seed/srand/engine constructors) or trace/stream output. Flagged by
/// L9 when the argument expression is tainted.
struct SinkUse {
  std::string Sink; ///< "seed", "srand", "Rng", "stream output", ...
  std::vector<std::string> ArgVars;
  std::vector<std::string> ArgCalls;
  bool HasSource = false;
  unsigned Line = 0;
  unsigned Col = 0;
  std::string LineText; ///< Trimmed source line (baseline key).
};

/// One instance-field or file-scope global declaration. The flow rules
/// (L10–L12) resolve written names against this table to decide whether
/// an lvalue is shared state, and whether its type already provides the
/// required synchronization.
struct FieldDecl {
  std::string Class; ///< Declaring class; empty for file-scope globals.
  std::string Name;
  bool Atomic = false; ///< std::atomic<...> / atomic_* typed.
  bool Mutex = false;  ///< mutex / condition_variable — lock state.
};

/// A field/global candidate written with an empty must-held lock set on
/// some path through the function (L10's per-function summary). Writes
/// provably under a lock on every path are not summarized at all.
struct UnguardedWrite {
  std::string Lhs;  ///< Full written chain as written ("Stats->Torn").
  std::string Base; ///< Chain base: "this", an ident, or "" (bare name).
  std::string Last; ///< Written component — the field candidate.
  unsigned Line = 0;
  unsigned Col = 0;
  std::string LineText; ///< Trimmed source line (baseline key).
};

/// One lifetime event for a tracked pointer: an arena (`allocateArray`)
/// result that is stored past its scope, returned, used after a reset, or
/// live across a call. L12 decides which events are violations using
/// whole-program facts.
struct RetentionSite {
  enum Kind {
    StoreTo = 0,       ///< Stored through a non-local lvalue.
    ReturnFrom = 1,    ///< Returned out of the defining function.
    UseAfterReset = 2, ///< Used after a matching Arena::reset on a path.
    AcrossCall = 3,    ///< Live across a call site.
  };
  int K = StoreTo;
  std::string Var;        ///< Tracked local ("<result>" for direct returns).
  std::string Origin;     ///< "arena:<normalized id>".
  std::string Base;       ///< StoreTo: destination chain base.
  std::string Last;       ///< StoreTo: destination last component.
  std::string Callee;     ///< AcrossCall: callee name.
  std::string CalleeQual; ///< AcrossCall: callee qualifier as written.
  bool CalleeMember = false;
  unsigned Line = 0;
  unsigned Col = 0;
  std::string LineText; ///< Trimmed source line (baseline key).
};

/// Flow-sensitive call summary for the thread-reachability walk: where
/// the simple CallSite records the brace-scoped held set, a FlowCall
/// records the dataflow must-held verdict plus whether the receiver is a
/// function-local object (writes behind it are task-local, not shared).
struct FlowCall {
  std::string Name;
  std::string Qualifier;
  bool IsMember = false;
  bool LocalRecv = false; ///< Receiver chain base is a local/param.
  bool LockFree = false;  ///< Must-held lock set empty at the site.
  unsigned Line = 0;
  unsigned Col = 0;
};

/// Everything phase 2 needs to know about one function definition.
struct FunctionInfo {
  std::string Qual;  ///< Fully qualified name, no signature: overloads
                     ///< collapse onto one graph node.
  std::string Name;  ///< Last component of Qual.
  std::string Class; ///< Enclosing class name, empty for free functions.
  unsigned Line = 0;
  unsigned Col = 0;
  std::string LineText; ///< Trimmed definition line (baseline key).
  bool HasSource = false; ///< Any direct entropy/wall-clock source.
  /// True for a lambda handed to a ThreadPool-style spawn call
  /// (parallelFor/submit/...): it runs on another thread, so its entry
  /// lock set is empty regardless of what the spawner held.
  bool IsThreadBody = false;
  std::vector<CallSite> Calls;
  std::vector<AllocSite> Allocs;
  std::vector<LockAcq> Acquires;
  std::vector<LockEdge> LockEdges;
  std::vector<TaintFlow> Flows;
  std::vector<SinkUse> Sinks;
  /// Quals of the task-lambda bodies this function spawns; the linker
  /// adds explicit caller→lambda edges for them (name resolution cannot).
  std::vector<std::string> SpawnedBodies;
  std::vector<UnguardedWrite> Writes;
  std::vector<RetentionSite> Retentions;
  std::vector<FlowCall> FlowCalls;
  /// Normalized arena ids this function calls .reset() on directly.
  std::vector<std::string> ResetArenas;
};

/// The phase-1 product for one file.
struct FileIndex {
  std::string Path; ///< Reported (root-stripped) path.
  FileKind Kind = FileKind::Other;
  std::vector<FunctionInfo> Functions;
  /// Instance fields and file-scope globals declared in this file.
  std::vector<FieldDecl> Fields;
  /// Allow-annotation coverage, fully expanded over statement extents
  /// (`line -> rules`), so phase 2 can honour annotations without the
  /// source text.
  std::map<unsigned, std::set<std::string>> AllowLines;
};

/// Indexes \p Source. Never fails; unparseable regions contribute no
/// symbols.
FileIndex buildFileIndex(const std::string &Path, const std::string &Source,
                         FileKind Kind);
FileIndex buildFileIndex(const std::string &Path, const std::string &Source);

/// Cache serialization: a stable, escaped line-based form. deserialize
/// returns false on any malformed input (the entry is then re-indexed).
std::string serializeFileIndex(const FileIndex &Index);
bool deserializeFileIndex(const std::string &Data, size_t &Pos,
                          FileIndex &Out);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_INDEX_H
