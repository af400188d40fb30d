//===-- tools/medley-lint/Cache.cpp - Incremental result cache -----------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "medley-lint/Cache.h"
#include "medley-lint/Internal.h"
#include "support/Fnv.h"

#include <algorithm>
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

bool LintCache::load(const std::string &Path) {
  Records.clear();
  Data.clear();
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Data = Buf.str();

  size_t Pos = 0;
  std::vector<std::string> F;
  if (!readTsvLine(Data, Pos, F) || F.size() != 2 || F[0] != CacheHeader ||
      F[1] != std::to_string(Fingerprint)) {
    Data.clear();
    return false;
  }
  // Fields are escaped, so no raw tab or newline sits inside one: a
  // record starts at, and only at, a line that begins with "F\t".
  while (Pos < Data.size()) {
    Record Rec;
    if (!readTsvLine(Data, Pos, F) || F.size() != 4 || F[0] != "F" ||
        !parseU64(F[2], Rec.Hash) ||
        !parseUnsignedField(F[3], Rec.NumFindings) ||
        (!Records.empty() && F[1] <= Records.rbegin()->first)) {
      Records.clear();
      Data.clear();
      return false;
    }
    Rec.Begin = std::min(Pos, Data.size());
    size_t Next = Data.find("\nF\t", Rec.Begin - 1);
    Rec.End = Next == std::string::npos ? Data.size() : Next + 1;
    Pos = Rec.End;
    Records.emplace_hint(Records.end(), std::move(F[1]), Rec);
  }
  return true;
}

bool LintCache::lookup(const std::string &File, unsigned long long Hash,
                       std::vector<Finding> &TokenFindings,
                       FileIndex &Index) const {
  auto It = Records.find(File);
  if (It == Records.end() || It->second.Hash != Hash)
    return false;
  const Record &Rec = It->second;
  size_t Pos = Rec.Begin;
  std::vector<std::string> F;
  TokenFindings.clear();
  for (unsigned I = 0; I < Rec.NumFindings; ++I) {
    Finding G;
    if (!readTsvLine(Data, Pos, F) || F.size() != 7 || F[0] != "g" ||
        !parseUnsignedField(F[2], G.Line) ||
        !parseUnsignedField(F[3], G.Col))
      return false;
    G.File = std::move(F[1]);
    G.Rule = std::move(F[4]);
    G.Message = std::move(F[5]);
    G.SourceLine = std::move(F[6]);
    TokenFindings.push_back(std::move(G));
  }
  return deserializeFileIndex(Data, Pos, Index) && Index.Path == File &&
         Pos == Rec.End;
}

bool LintCache::save(const std::string &Path,
                     const std::map<std::string, CacheEntry> &Entries) const {
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
