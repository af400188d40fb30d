//===-- tools/medley-lint/main.cpp - CLI entry point ---------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// medley-lint CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error.
///
///   medley-lint [--root DIR] <path>...
///     --root DIR            strip DIR/ from reported paths (stable diffs)
///
/// Paths may be files or directories; directories are scanned
/// recursively for *.cpp / *.h. Output is sorted by (file, line, col,
/// rule) and carries no timestamps, so consecutive runs diff cleanly.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace medley::lint;
namespace fs = std::filesystem;

namespace {

int usage(const std::string &Message) {
  std::cerr << "medley-lint: " << Message << "\n"
            << "usage: medley-lint [--root DIR] <path>...\n";
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

} // namespace

int main(int Argc, char **Argv) {
  std::string Root;
  std::vector<std::string> Paths;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--root") {
      if (I + 1 >= Argc)
        return usage("--root needs a directory");
      Root = Argv[++I];
    } else if (Arg == "--help" || Arg == "-h") {
      usage("project-specific determinism lint");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage("unknown option: " + Arg);
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty())
    return usage("no paths given");

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

  std::vector<Finding> Findings = lintTree(Sources);
  for (const Finding &F : Findings)
    std::cout << renderText(F) << "\n";
  std::cout << "medley-lint: " << Files.size() << " files, "
            << Findings.size() << " finding"
            << (Findings.size() == 1 ? "" : "s") << "\n";
  return Findings.empty() ? 0 : 1;
}
