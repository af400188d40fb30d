//===-- tools/medley-lint/main.cpp - CLI entry point ---------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// medley-lint CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error,
/// 3 clean but the baseline has stale entries (CI burn-down gate; a
/// findings exit takes precedence).
///
///   medley-lint [options] <path>...
///     --root DIR            strip DIR/ from reported paths (stable diffs)
///     --baseline FILE       suppress findings listed in FILE
///     --write-baseline FILE write the current findings as a baseline
///     --prune-baseline      rewrite --baseline FILE dropping entries that
///                           no longer match a finding (keeps comments)
///     --fail-stale-baseline exit 3 when --baseline has stale entries and
///                           nothing else failed
///     --json FILE           write the JSON report to FILE
///     --sarif FILE          write a SARIF 2.1.0 report to FILE
///     --graph-json FILE     dump the linked call graph as JSON
///     --cache FILE          incremental per-file cache (content-hashed,
///                           fingerprinted by the analyzer identity)
///     --jobs N              phase-1 worker threads (default: MEDLEY_JOBS
///                           or hardware concurrency)
///     --no-semantic         token rules only; skip L7–L12 and the graph
///
/// Paths may be files or directories; directories are scanned
/// recursively for *.cpp / *.h. Output is sorted by (file, line, col,
/// rule), independent of --jobs, and carries no timestamps, so
/// consecutive runs diff cleanly.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Semantic.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

using namespace medley::lint;
namespace fs = std::filesystem;

namespace {

int usage(const std::string &Message) {
  std::cerr << "medley-lint: " << Message << "\n"
            << "usage: medley-lint [--root DIR] [--baseline FILE] "
               "[--write-baseline FILE] [--prune-baseline] "
               "[--fail-stale-baseline] [--json FILE] [--sarif FILE] "
               "[--graph-json FILE] [--cache FILE] [--jobs N] "
               "[--no-semantic] <path>...\n";
  return 2;
}

bool lintableFile(const fs::path &P) {
  std::string Ext = P.extension().string();
  return Ext == ".cpp" || Ext == ".h";
}

/// Expands files and recursively-scanned directories into a sorted,
/// de-duplicated file list.
std::vector<std::string> collectFiles(const std::vector<std::string> &Paths,
                                      std::string &Error) {
  std::vector<std::string> Files;
  for (const std::string &Path : Paths) {
    std::error_code EC;
    if (fs::is_directory(Path, EC)) {
      for (fs::recursive_directory_iterator It(Path, EC), End;
           It != End && !EC; It.increment(EC))
        if (It->is_regular_file() && lintableFile(It->path()))
          Files.push_back(It->path().string());
    } else if (fs::is_regular_file(Path, EC)) {
      Files.push_back(Path);
    } else {
      Error = "no such file or directory: " + Path;
      return {};
    }
  }
  std::sort(Files.begin(), Files.end());
  Files.erase(std::unique(Files.begin(), Files.end()), Files.end());
  return Files;
}

/// Reported path: \p Path with the --root prefix stripped, so reports
/// are machine-independent.
std::string reportPath(const std::string &Path, const std::string &Root) {
  if (Root.empty())
    return Path;
  std::string Prefix = Root;
  if (!Prefix.empty() && Prefix.back() != '/')
    Prefix += '/';
  if (Path.rfind(Prefix, 0) == 0)
    return Path.substr(Prefix.size());
  return Path;
}

bool writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << Content;
  return static_cast<bool>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Root, BaselinePath, WriteBaselinePath, JsonPath, SarifPath,
      GraphJsonPath;
  bool PruneBaseline = false;
  bool FailStaleBaseline = false;
  AnalyzeOptions Opts;
  std::vector<std::string> Paths;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    if (Arg == "--root") {
      if (!Value(Root))
        return usage("--root needs a directory");
    } else if (Arg == "--baseline") {
      if (!Value(BaselinePath))
        return usage("--baseline needs a file");
    } else if (Arg == "--write-baseline") {
      if (!Value(WriteBaselinePath))
        return usage("--write-baseline needs a file");
    } else if (Arg == "--prune-baseline") {
      PruneBaseline = true;
    } else if (Arg == "--fail-stale-baseline") {
      FailStaleBaseline = true;
    } else if (Arg == "--json") {
      if (!Value(JsonPath))
        return usage("--json needs a file");
    } else if (Arg == "--sarif") {
      if (!Value(SarifPath))
        return usage("--sarif needs a file");
    } else if (Arg == "--graph-json") {
      if (!Value(GraphJsonPath))
        return usage("--graph-json needs a file");
    } else if (Arg == "--cache") {
      if (!Value(Opts.CachePath))
        return usage("--cache needs a file");
    } else if (Arg == "--jobs") {
      std::string N;
      if (!Value(N))
        return usage("--jobs needs a count");
      // 0 keeps the default worker count.
      std::optional<uint64_t> Jobs = medley::parseUnsigned(
          N, 0, medley::support::ThreadPool::maxSaneJobs());
      if (!Jobs)
        return usage("invalid value '" + N + "' for --jobs");
      Opts.Jobs = static_cast<unsigned>(*Jobs);
    } else if (Arg == "--no-semantic") {
      Opts.Semantic = false;
    } else if (Arg == "--help" || Arg == "-h") {
      usage("project-specific determinism & concurrency lint");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage("unknown option: " + Arg);
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty())
    return usage("no paths given");
  if ((PruneBaseline || FailStaleBaseline) && BaselinePath.empty())
    return usage("--prune-baseline/--fail-stale-baseline need --baseline");

  std::string CollectError;
  std::vector<std::string> Files = collectFiles(Paths, CollectError);
  if (!CollectError.empty())
    return usage(CollectError);

  std::vector<SourceFile> Sources;
  Sources.reserve(Files.size());
  for (const std::string &File : Files) {
    std::ifstream In(File, std::ios::binary);
    if (!In)
      return usage("cannot read: " + File);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Sources.push_back({reportPath(File, Root), Buffer.str()});
  }

  AnalyzeResult Result = analyzeSources(Sources, Opts);
  std::vector<Finding> Findings = std::move(Result.Findings);

  if (!GraphJsonPath.empty() &&
      !writeFile(GraphJsonPath, renderGraphJson(Result.Graph)))
    return usage("cannot write graph: " + GraphJsonPath);

  if (!WriteBaselinePath.empty()) {
    std::ostringstream Out;
    Out << "# medley-lint baseline — one suppression per line:\n"
        << "# file|rule|trimmed source line ('|' and '\\' are "
           "backslash-escaped)\n";
    for (const std::string &Line : renderBaseline(Findings))
      Out << Line << "\n";
    if (!writeFile(WriteBaselinePath, Out.str()))
      return usage("cannot write baseline: " + WriteBaselinePath);
  }

  size_t StaleBaselineLines = 0;
  if (!BaselinePath.empty()) {
    std::ifstream In(BaselinePath);
    if (!In)
      return usage("cannot read baseline: " + BaselinePath);
    std::vector<std::string> Lines;
    std::string Line;
    while (std::getline(In, Line))
      Lines.push_back(Line);
    BaselineResult BR = applyBaselineDetailed(std::move(Findings), Lines);
    Findings = std::move(BR.Kept);
    StaleBaselineLines = BR.StaleLines.size();
    for (size_t I : BR.StaleLines)
      std::cerr << "medley-lint: stale baseline entry (" << BaselinePath
                << ":" << (I + 1) << "): " << Lines[I] << "\n";
    if (PruneBaseline) {
      // Rewrite in place: comments and blank lines survive, used
      // suppressions keep their original order, stale ones drop out.
      std::set<size_t> Stale(BR.StaleLines.begin(), BR.StaleLines.end());
      std::ostringstream Out;
      for (size_t I = 0; I < Lines.size(); ++I)
        if (!Stale.count(I))
          Out << Lines[I] << "\n";
      if (!writeFile(BaselinePath, Out.str()))
        return usage("cannot rewrite baseline: " + BaselinePath);
    }
  }

  if (!JsonPath.empty() && !writeFile(JsonPath, renderJson(Findings)))
    return usage("cannot write report: " + JsonPath);
  if (!SarifPath.empty() && !writeFile(SarifPath, renderSarif(Findings)))
    return usage("cannot write sarif: " + SarifPath);

  for (const Finding &F : Findings)
    std::cout << renderText(F) << "\n";
  std::cout << "medley-lint: " << Files.size() << " files, "
            << Findings.size() << " finding"
            << (Findings.size() == 1 ? "" : "s") << "\n";
  if (!Findings.empty())
    return 1;
  return (FailStaleBaseline && StaleBaselineLines) ? 3 : 0;
}
