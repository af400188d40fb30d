//===-- tools/medley-lint/Lint.cpp - Lint driver -------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "medley-lint/Internal.h"

#include <algorithm>
#include <sstream>

using namespace medley::lint;

namespace {

/// Splits \p Path at '/' into components.
std::vector<std::string> components(const std::string &Path) {
  std::vector<std::string> Out;
  std::string Part;
  for (char C : Path) {
    if (C == '/') {
      if (!Part.empty())
        Out.push_back(Part);
      Part.clear();
    } else {
      Part += C;
    }
  }
  if (!Part.empty())
    Out.push_back(Part);
  return Out;
}

bool findingLess(const Finding &A, const Finding &B) {
  if (A.File != B.File)
    return A.File < B.File;
  if (A.Line != B.Line)
    return A.Line < B.Line;
  if (A.Col != B.Col)
    return A.Col < B.Col;
  return A.Rule < B.Rule;
}

} // namespace

size_t medley::lint::skipBalanced(const std::vector<Token> &Toks, size_t I,
                                  const char *Open, const char *Close) {
  int Depth = 0;
  for (; I < Toks.size(); ++I) {
    if (Toks[I].K == Token::Punct) {
      if (Toks[I].Text == Open)
        ++Depth;
      else if (Toks[I].Text == Close && --Depth == 0)
        return I + 1;
    }
  }
  return Toks.size();
}

size_t medley::lint::skipTemplateArgs(const std::vector<Token> &Toks,
                                      size_t I) {
  int Depth = 0;
  for (; I < Toks.size(); ++I) {
    if (Toks[I].K != Token::Punct)
      continue;
    if (Toks[I].Text == "<")
      ++Depth;
    else if (Toks[I].Text == ">") {
      if (--Depth == 0)
        return I + 1;
    } else if (Toks[I].Text == ">>") {
      Depth -= 2;
      if (Depth <= 0)
        return I + 1;
    } else if (Toks[I].Text == ";" || Toks[I].Text == "{") {
      break; // Not template args after all (comparison chain).
    }
  }
  return I;
}

std::map<unsigned, std::set<std::string>>
medley::lint::expandAllowCoverage(const LexedFile &Lexed) {
  std::map<unsigned, std::set<std::string>> Out;
  const std::vector<Token> &T = Lexed.Tokens;
  for (const auto &[Line, Rules] : Lexed.AllowedByLine) {
    unsigned End = Line + 1;
    // The statement the annotation attaches to: the first token at or
    // after the annotation's line (same line for trailing annotations,
    // the next line for line-above placement). If it starts within the
    // base coverage window, extend coverage to the statement's end.
    size_t I = 0;
    while (I < T.size() && T[I].Line < Line)
      ++I;
    if (I < T.size() && T[I].Line <= Line + 1) {
      int Depth = 0;
      // Bounded walk: malformed code must not turn one annotation into
      // a whole-file suppression.
      for (; I < T.size() && T[I].Line <= Line + 30; ++I) {
        if (T[I].K != Token::Punct)
          continue;
        const std::string &P = T[I].Text;
        if (P == "(" || P == "[")
          ++Depth;
        else if (P == ")" || P == "]") {
          if (--Depth < 0) { // Started mid-expression; stop here.
            End = std::max(End, T[I].Line);
            break;
          }
        } else if (Depth == 0 && (P == ";" || P == "{" || P == "}")) {
          End = std::max(End, T[I].Line);
          break;
        }
      }
    }
    for (unsigned L = Line; L <= End; ++L)
      Out[L].insert(Rules.begin(), Rules.end());
  }
  return Out;
}

FileKind medley::lint::classifyPath(const std::string &Path) {
  std::vector<std::string> Parts = components(Path);
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (Parts[I] == "src") {
      if (I + 1 < Parts.size() && Parts[I + 1] == "support")
        return FileKind::SrcSupport;
      return FileKind::Src;
    }
    if (Parts[I] == "apps")
      return FileKind::Apps;
    if (Parts[I] == "bench")
      return FileKind::Bench;
    if (Parts[I] == "tests")
      return FileKind::Tests;
  }
  return FileKind::Other;
}

std::string medley::lint::renderText(const Finding &F) {
  std::ostringstream OS;
  OS << F.File << ":" << F.Line << ":" << F.Col << ": [" << F.Rule << "] "
     << F.Message;
  return OS.str();
}

std::vector<Finding> medley::lint::lintSource(const std::string &Path,
                                              const std::string &Source,
                                              FileKind Kind) {
  LexedFile Lexed = lex(Source);
  std::vector<Finding> Raw;
  runRules(Path, Kind, Lexed, Raw);

  // An allow annotation covers its own line, the next one, and — when
  // the statement starting there spans further physical lines — the
  // whole statement, so both
  //   stmt;  // medley-lint: allow(rule)
  // and
  //   // medley-lint: allow(rule)
  //   auto X = stmt(spanning,
  //                 several, lines);
  // work. "all" silences every rule at that point.
  std::map<unsigned, std::set<std::string>> Allowed =
      expandAllowCoverage(Lexed);
  std::vector<Finding> Kept;
  for (Finding &F : Raw) {
    auto It = Allowed.find(F.Line);
    bool Suppressed = It != Allowed.end() && (It->second.count(F.Rule) ||
                                              It->second.count("all"));
    if (!Suppressed)
      Kept.push_back(std::move(F));
  }
  std::sort(Kept.begin(), Kept.end(), findingLess);
  return Kept;
}

std::vector<Finding> medley::lint::lintSource(const std::string &Path,
                                              const std::string &Source) {
  return lintSource(Path, Source, classifyPath(Path));
}
