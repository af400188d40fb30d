//===-- tools/medley-lint/Cache.cpp - Incremental result cache -----------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "medley-lint/Cache.h"
#include "medley-lint/Internal.h"
#include "support/Fnv.h"

#include <fstream>
#include <sstream>

using namespace medley::lint;

namespace {

/// Bump on any format change: a mismatch simply makes the next run
/// cold. Rule-semantics changes are covered by the fingerprint field
/// next to it (cacheFingerprint), so forgetting a manual bump cannot
/// serve stale reports.
const char *const CacheHeader = "medley-lint-cache 3";

bool parseU64(const std::string &S, unsigned long long &Out) {
  if (S.empty())
    return false;
  Out = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    unsigned long long Next = Out * 10 + static_cast<unsigned long long>(C - '0');
    if (Next < Out)
      return false;
    Out = Next;
  }
  return true;
}

} // namespace

unsigned long long medley::lint::cacheFingerprint(const std::string &Salt) {
  std::string Ident = AnalyzerVersion;
  for (const RuleMeta &M : ruleCatalog()) {
    Ident += '\n';
    Ident += M.Id;
    Ident += '\t';
    Ident += M.Name;
    Ident += '\t';
    Ident += M.Short;
  }
  Ident += '\n';
  Ident += Salt;
  return support::fnv1aString(Ident);
}

void LintCache::load(const std::string &Path) {
  Entries.clear();
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Data = Buf.str();

  size_t Pos = 0;
  std::vector<std::string> F;
  if (!readTsvLine(Data, Pos, F) || F.size() != 2 || F[0] != CacheHeader ||
      F[1] != std::to_string(Fingerprint))
    return;
  while (Pos < Data.size()) {
    if (!readTsvLine(Data, Pos, F) || F.size() != 4 || F[0] != "F") {
      Entries.clear();
      return;
    }
    std::string FilePath = F[1];
    CacheEntry E;
    unsigned NumFindings = 0;
    if (!parseU64(F[2], E.Hash) || !parseUnsignedField(F[3], NumFindings)) {
      Entries.clear();
      return;
    }
    for (unsigned I = 0; I < NumFindings; ++I) {
      Finding G;
      if (!readTsvLine(Data, Pos, F) || F.size() != 7 || F[0] != "g" ||
          !parseUnsignedField(F[2], G.Line) ||
          !parseUnsignedField(F[3], G.Col)) {
        Entries.clear();
        return;
      }
      G.File = F[1];
      G.Rule = F[4];
      G.Message = F[5];
      G.SourceLine = F[6];
      E.TokenFindings.push_back(std::move(G));
    }
    if (!deserializeFileIndex(Data, Pos, E.Index) ||
        E.Index.Path != FilePath) {
      Entries.clear();
      return;
    }
    Entries[FilePath] = std::move(E);
  }
}

bool LintCache::lookup(const std::string &File, unsigned long long Hash,
                       CacheEntry &Out) const {
  auto It = Entries.find(File);
  if (It == Entries.end() || It->second.Hash != Hash)
    return false;
  Out = It->second;
  return true;
}

void LintCache::put(CacheEntry E) {
  std::string Key = E.Index.Path;
  Entries[Key] = std::move(E);
}

bool LintCache::save(const std::string &Path) const {
  std::string Out;
  appendTsvLine(Out, {CacheHeader, std::to_string(Fingerprint)});
  for (const auto &[FilePath, E] : Entries) {
    appendTsvLine(Out, {"F", FilePath, std::to_string(E.Hash),
                        std::to_string(E.TokenFindings.size())});
    for (const Finding &G : E.TokenFindings)
      appendTsvLine(Out, {"g", G.File, std::to_string(G.Line),
                          std::to_string(G.Col), G.Rule, G.Message,
                          G.SourceLine});
    Out += serializeFileIndex(E.Index);
  }
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return false;
  OS << Out;
  return static_cast<bool>(OS);
}
