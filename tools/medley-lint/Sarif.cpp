//===-- tools/medley-lint/Sarif.cpp - SARIF 2.1.0 report -----------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Findings as a SARIF 2.1.0 log: one run, one result per finding. The
/// driver's `rules` table carries the full L1–L12 catalog (id, name,
/// one-line shortDescription) whether or not a rule fired, results
/// reference it by `ruleIndex`, and each result carries a
/// `partialFingerprints` entry — the FNV-1a hash of the
/// position-independent baseline key — so CI result matching survives
/// unrelated edits above a finding. Kept to the subset editors and CI
/// annotators actually read, and — like every other medley-lint report
/// — byte-stable across runs.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Internal.h"
#include "support/Fnv.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>

using namespace medley::lint;

namespace {

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

} // namespace

std::string medley::lint::renderSarif(const std::vector<Finding> &Findings) {
  std::vector<Finding> Sorted = Findings;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Finding &A, const Finding &B) {
              return std::tie(A.File, A.Line, A.Col, A.Rule, A.Message) <
                     std::tie(B.File, B.Line, B.Col, B.Rule, B.Message);
            });

  const std::vector<RuleMeta> &Catalog = ruleCatalog();
  std::map<std::string, size_t> RuleIndex;
  for (size_t I = 0; I < Catalog.size(); ++I)
    RuleIndex.emplace(Catalog[I].Id, I);

  std::ostringstream OS;
  OS << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"medley-lint\",\n"
     << "          \"informationUri\": \"DESIGN.md\",\n"
     << "          \"rules\": [";
  for (size_t I = 0; I < Catalog.size(); ++I) {
    const RuleMeta &M = Catalog[I];
    OS << (I ? ",\n" : "\n") << "            {\"id\": \"" << jsonEscape(M.Id)
       << "\", \"name\": \"" << jsonEscape(M.Name)
       << "\", \"shortDescription\": {\"text\": \"" << jsonEscape(M.Short)
       << "\"}}";
  }
  OS << (Catalog.empty() ? "]\n" : "\n          ]\n");
  OS << "        }\n"
     << "      },\n"
     << "      \"results\": [";
  for (size_t I = 0; I < Sorted.size(); ++I) {
    const Finding &F = Sorted[I];
    char Fp[24];
    std::snprintf(Fp, sizeof(Fp), "%016llx",
                  static_cast<unsigned long long>(
                      support::fnv1aString(renderBaselineKey(F))));
    OS << (I ? ",\n" : "\n");
    OS << "        {\"ruleId\": \"" << jsonEscape(F.Rule) << "\"";
    auto RI = RuleIndex.find(F.Rule);
    if (RI != RuleIndex.end())
      OS << ", \"ruleIndex\": " << RI->second;
    OS << ", \"level\": \"warning\", \"message\": {\"text\": \""
       << jsonEscape(F.Message) << "\"}, \"locations\": [{"
       << "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
       << jsonEscape(F.File) << "\"}, \"region\": {\"startLine\": " << F.Line
       << ", \"startColumn\": " << F.Col
       << "}}}], \"partialFingerprints\": {\"medleyLintKey/v2\": \"" << Fp
       << "\"}}";
  }
  OS << (Sorted.empty() ? "]\n" : "\n      ]\n");
  OS << "    }\n  ]\n}\n";
  return OS.str();
}
