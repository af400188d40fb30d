//===-- tools/medley-lint/Lint.cpp - Lint driver & reports ---------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "medley-lint/Internal.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace medley::lint;

std::string medley::lint::trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r\n");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r\n");
  return S.substr(B, E - B + 1);
}

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

std::vector<std::string> splitLines(const std::string &Source) {
  std::vector<std::string> Lines;
  std::string Line;
  for (char C : Source) {
    if (C == '\n') {
      Lines.push_back(Line);
      Line.clear();
    } else {
      Line += C;
    }
  }
  Lines.push_back(Line);
  return Lines;
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

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// Backslash-escapes the baseline key separators inside one field.
std::string escapeKeyField(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\' || C == '|')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

const std::vector<RuleMeta> &medley::lint::ruleCatalog() {
  static const std::vector<RuleMeta> Catalog = {
      {RuleNondeterminism, "Nondeterminism",
       "Wall-clock reads or unseeded entropy in src/"},
      {RuleUnorderedReduction, "UnorderedReduction",
       "Reduction fed by unordered-container iteration order"},
      {RuleRawConcurrency, "RawConcurrency",
       "Raw std::thread/detach/mutex.lock() outside src/support/"},
      {RuleFloatEquality, "FloatEquality",
       "==/!= against floating-point literals outside test assertions"},
      {RuleErrorCheck, "ErrorCheck",
       "support::Error out-parameter the function body never touches"},
      {RuleHotpathAlloc, "HotpathAlloc",
       "Value-returning linalg call in an allocation-free hot-path file"},
      {RuleHotpathEscape, "HotpathEscape",
       "Allocation site reachable from a decision entry point"},
      {RuleLockOrder, "LockOrder",
       "Lock-acquisition-order cycle or lock held across a blocking call"},
      {RuleDeterminismTaint, "DeterminismTaint",
       "Entropy/wall-clock taint reaching an RNG seed or trace sink"},
      {RuleCrossThreadWrite, "CrossThreadWrite",
       "Unsynchronized non-atomic field/global write on a thread-task path"},
      {RuleArenaEscape, "ArenaEscape",
       "Arena::allocateArray storage escaping tick scope or used after "
       "reset()"},
  };
  return Catalog;
}

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

std::string medley::lint::renderBaselineKey(const Finding &F) {
  return escapeKeyField(F.File) + "|" + escapeKeyField(F.Rule) + "|" +
         escapeKeyField(F.SourceLine);
}

bool medley::lint::parseBaselineKey(const std::string &Line, std::string &File,
                                    std::string &Rule,
                                    std::string &SourceLine) {
  std::vector<std::string> Fields(1);
  bool Escaped = false;
  for (char C : Line) {
    if (Escaped) {
      Fields.back() += C;
      Escaped = false;
    } else if (C == '\\') {
      Escaped = true;
    } else if (C == '|') {
      Fields.emplace_back();
    } else {
      Fields.back() += C;
    }
  }
  if (Escaped || Fields.size() != 3)
    return false;
  File = Fields[0];
  Rule = Fields[1];
  SourceLine = Fields[2];
  return true;
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
  std::vector<std::string> Lines = splitLines(Source);
  std::vector<Finding> Raw;
  runRules(Path, Kind, Lexed, Lines, Raw);

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

std::vector<std::string>
medley::lint::renderBaseline(const std::vector<Finding> &Findings) {
  std::vector<std::string> Lines;
  Lines.reserve(Findings.size());
  for (const Finding &F : Findings)
    Lines.push_back(renderBaselineKey(F));
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

std::vector<Finding>
medley::lint::applyBaseline(std::vector<Finding> Findings,
                            const std::vector<std::string> &Lines) {
  return applyBaselineDetailed(std::move(Findings), Lines).Kept;
}

BaselineResult
medley::lint::applyBaselineDetailed(std::vector<Finding> Findings,
                                    const std::vector<std::string> &Lines) {
  // Multiset of suppressions: each baseline line forgives exactly one
  // matching finding, so a file that grows a second identical problem
  // still fails. Identical lines are consumed in file order, keeping
  // the used/stale split deterministic.
  std::map<std::string, std::vector<size_t>> ByKey;
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string Line = trim(Lines[I]);
    if (Line.empty() || Line[0] == '#')
      continue;
    ByKey[Line].push_back(I);
  }

  BaselineResult R;
  std::set<size_t> Used;
  for (Finding &F : Findings) {
    auto It = ByKey.find(renderBaselineKey(F));
    if (It != ByKey.end() && !It->second.empty()) {
      Used.insert(It->second.front());
      It->second.erase(It->second.begin());
    } else {
      R.Kept.push_back(std::move(F));
    }
  }
  std::sort(R.Kept.begin(), R.Kept.end(), findingLess);
  R.UsedLines.assign(Used.begin(), Used.end());
  for (const auto &[Key, Idxs] : ByKey) {
    (void)Key;
    R.StaleLines.insert(R.StaleLines.end(), Idxs.begin(), Idxs.end());
  }
  std::sort(R.StaleLines.begin(), R.StaleLines.end());
  return R;
}

std::string medley::lint::renderJson(const std::vector<Finding> &Findings) {
  std::vector<Finding> Sorted = Findings;
  std::sort(Sorted.begin(), Sorted.end(), findingLess);
  std::map<std::string, unsigned> ByRule;
  for (const Finding &F : Sorted)
    ++ByRule[F.Rule];

  std::ostringstream OS;
  OS << "{\n  \"findings\": [";
  for (size_t I = 0; I < Sorted.size(); ++I) {
    const Finding &F = Sorted[I];
    OS << (I ? ",\n" : "\n");
    OS << "    {\"file\": \"" << jsonEscape(F.File) << "\", \"line\": "
       << F.Line << ", \"col\": " << F.Col << ", \"rule\": \""
       << jsonEscape(F.Rule) << "\", \"message\": \"" << jsonEscape(F.Message)
       << "\"}";
  }
  OS << (Sorted.empty() ? "],\n" : "\n  ],\n");
  OS << "  \"counts\": {";
  bool First = true;
  for (const auto &[Rule, Count] : ByRule) {
    OS << (First ? "" : ", ") << "\"" << jsonEscape(Rule) << "\": " << Count;
    First = false;
  }
  OS << "},\n  \"total\": " << Sorted.size() << "\n}\n";
  return OS.str();
}
