//===-- tools/medley-lint/Semantic.h - Interprocedural rules ----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 2 of the semantic analyzer (DESIGN.md §12): the three
/// interprocedural rule families over the linked CallGraph, plus
/// analyzeSources — the orchestration that runs phase 1 in parallel
/// over files (support::ThreadPool, deterministic merge), consults the
/// incremental cache, links the graph, and runs:
///
///   hotpath-escape    (L7)  "may-allocate" propagated transitively up
///                           the call graph; any path from a decision
///                           entry point to an allocation site is
///                           flagged *at the allocation site* with the
///                           shortest entry path in the message, so an
///                           allow annotation at the site is precise.
///   lock-order        (L8)  a global lock-acquisition-order graph
///                           (intra-function orderings plus locks held
///                           across calls into lock-taking callees);
///                           cycles and locks held across blocking
///                           calls (join/sleep/system/parallelFor) are
///                           flagged.
///   determinism-taint (L9)  entropy/wall-clock taint tracked through
///                           assignments and returns; tainted values
///                           reaching RNG seeds or stream/trace output
///                           are flagged unless the sink is annotated.
///
/// The flow-sensitive families (DESIGN.md §15) consume the per-function
/// CFG + dataflow summaries the indexer computes in phase 1:
///
///   cross-thread-write  (L10) non-atomic fields/globals written with no
///                             lock held on any path reachable from a
///                             thread-task body (lambdas handed to
///                             parallelFor/submit/...).
///   arena-escape        (L12) support::Arena::allocateArray storage
///                             escaping its tick scope (stored,
///                             returned) or used after the matching
///                             arena's reset() on any path.
///
/// All five traverse only src/ and src/support/ definitions — tests,
/// benches and apps may allocate, lock and log as they please.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_SEMANTIC_H
#define MEDLEY_TOOLS_LINT_SEMANTIC_H

#include "medley-lint/CallGraph.h"

namespace medley::lint {

/// One source file handed to the analyzer; Path is the reported
/// (root-stripped) path.
struct SourceFile {
  std::string Path;
  std::string Source;
};

struct AnalyzeOptions {
  bool Semantic = true;   ///< Run phase 2 (L7–L12) after the token rules.
  unsigned Jobs = 0;      ///< Phase-1 worker count; 0 → defaultJobs().
  std::string CachePath;  ///< Incremental cache file; empty disables.
  /// Extra bytes folded into the cache fingerprint alongside the
  /// analyzer version and rule catalog. Tests use it to simulate a rule
  /// bump; production runs leave it empty.
  std::string FingerprintSalt;
};

struct AnalyzeResult {
  /// Token + semantic findings, allow-suppressed, sorted by
  /// (file, line, col, rule). Baselines are the caller's business.
  std::vector<Finding> Findings;
  /// The linked graph (empty when Semantic was off) for --graph-json.
  CallGraph Graph;
  /// Files served from the incremental cache this run (0 on a cold run).
  size_t CacheHits = 0;
};

/// True for the decision entry points L7 anchors on: MixtureOfExperts
/// methods (minus constructor/destructor), selector
/// select/choose/update/blendWeights/gate, policy::buildFeatures, and
/// Simulation::step.
bool isDecisionEntry(const CallGraph::Node &N);

/// Runs L7–L9 over a linked graph; findings come back unsorted and
/// already allow-suppressed via the graph's per-file coverage.
std::vector<Finding> runSemanticRules(const CallGraph &G);

/// The whole pipeline: parallel phase 1 (token rules + indexing, cache
/// reuse by content hash), deterministic link, phase 2. When a cache
/// path is set and a file changed, appeared or vanished since the cache
/// was written, rewrites the whole cache file afterwards, so entries for
/// deleted files age out; a fully warm run leaves the file untouched.
AnalyzeResult analyzeSources(const std::vector<SourceFile> &Files,
                             const AnalyzeOptions &Opts);

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_SEMANTIC_H
