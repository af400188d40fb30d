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
/// when *other* files changed. load() only indexes the records; a hit
/// parses its one record on lookup, inside phase 1's parallel loop.
/// analyzeSources() rewrites the whole file only when its content would
/// change (a file changed, appeared or vanished, or a record was
/// unreadable), which prunes entries for deleted files; a version header
/// invalidates everything when the format or rule set moves.
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
/// safe to call concurrently once load() finished; load()/save() are
/// single-threaded.
class LintCache {
public:
  /// Sets the analyzer fingerprint checked by load() and written by
  /// save(). Call before load(); entries saved under a different
  /// fingerprint are ignored wholesale.
  void setFingerprint(unsigned long long F) { Fingerprint = F; }

  /// Reads \p Path and indexes its records (path, hash, byte range)
  /// without parsing their bodies. Returns false, leaving the cache
  /// empty (a cold run), when the file is missing or unreadable, its
  /// version or fingerprint does not match, or an `F` line is malformed
  /// or out of save()'s path order.
  bool load(const std::string &Path);

  /// On a hit (\p File present with matching \p Hash) parses that one
  /// record straight into \p TokenFindings and \p Index and returns
  /// true. A record that fails to parse, names another index path or
  /// does not end where the next record begins is a miss; on a miss
  /// the outputs hold no meaningful value.
  bool lookup(const std::string &File, unsigned long long Hash,
              std::vector<Finding> &TokenFindings, FileIndex &Index) const;

  /// Records load() indexed, one per path.
  size_t size() const { return Records.size(); }

  /// Writes \p Entries, one record each in path order, under this
  /// cache's fingerprint. Returns false on IO error.
  bool save(const std::string &Path,
            const std::map<std::string, CacheEntry> &Entries) const;

private:
  /// One indexed record: the body follows its `F` line and ends where
  /// the next record begins.
  struct Record {
    unsigned long long Hash = 0;
    unsigned NumFindings = 0;
    size_t Begin = 0, End = 0; ///< Body byte range in Data.
  };

  std::string Data; ///< The loaded file; records point into it.
  std::map<std::string, Record> Records;
  unsigned long long Fingerprint = 0;
};

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_CACHE_H
