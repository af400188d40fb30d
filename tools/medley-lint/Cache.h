//===-- tools/medley-lint/Cache.h - Incremental result cache ----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental per-file cache (DESIGN.md §12): for every analyzed
/// file it stores the FNV-1a hash of the content, the post-suppression
/// token findings, and the serialized FileIndex. A warm run re-hashes
/// each file (cheap) and skips lexing/rule-running/indexing on a hit;
/// phase 2 always re-links, so interprocedural results stay correct
/// when *other* files changed. The cache file is rewritten wholesale
/// after each run, which prunes entries for deleted files; a version
/// header invalidates everything when the format or rule set moves.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_CACHE_H
#define MEDLEY_TOOLS_LINT_CACHE_H

#include "medley-lint/Index.h"

namespace medley::lint {

/// The analyzer-identity fingerprint folded into the cache header:
/// FNV-1a over the analyzer version, the full rule catalog (ids, names,
/// descriptions) and \p Salt. Content hashes alone cannot invalidate a
/// warm cache when the *analyzer* changed — bumping any rule or the
/// serialization format changes this value and turns the next run cold.
unsigned long long cacheFingerprint(const std::string &Salt);

/// One cached file result.
struct CacheEntry {
  unsigned long long Hash = 0;
  std::vector<Finding> TokenFindings; ///< Post-allow single-file findings.
  FileIndex Index;
};

/// The cache as a whole. Thread-safety contract: lookup() is const and
/// safe to call concurrently once load() finished; put()/save() are
/// single-threaded (the driver calls them after the parallel phase).
class LintCache {
public:
  /// Sets the analyzer fingerprint checked by load() and written by
  /// save(). Call before load(); entries saved under a different
  /// fingerprint are ignored wholesale.
  void setFingerprint(unsigned long long F) { Fingerprint = F; }

  /// Reads \p Path; a missing, unreadable, version- or
  /// fingerprint-mismatched file just leaves the cache empty (a cold
  /// run).
  void load(const std::string &Path);

  /// On a hit (\p File present with matching \p Hash) copies the entry
  /// into \p Out and returns true.
  bool lookup(const std::string &File, unsigned long long Hash,
              CacheEntry &Out) const;

  /// Inserts/replaces the entry for E.Index.Path.
  void put(CacheEntry E);

  /// Writes every entry, sorted by path. Returns false on IO error.
  bool save(const std::string &Path) const;

  size_t size() const { return Entries.size(); }

private:
  std::map<std::string, CacheEntry> Entries;
  unsigned long long Fingerprint = 0;
};

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_CACHE_H
