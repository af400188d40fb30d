//===-- bench/BenchUtil.cpp - Shared bench helpers ------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/StringUtils.h"
#include "workload/Catalog.h"

#include <cstdlib>
#include <iostream>
#include <optional>

using namespace medley;
using namespace medley::bench;

void medley::bench::printBanner(const std::string &FigureId,
                                const std::string &Claim) {
  std::string Title = "Medley reproduction of " + FigureId +
                      " (Emani & O'Boyle, PLDI 2015)";
  std::cout << Title << '\n' << std::string(Title.size(), '=') << '\n';
  std::cout << "paper: " << Claim << "\n\n";
}

exp::SpeedupMatrix
medley::bench::runSpeedupFigure(const std::string &FigureId,
                                const std::string &Claim,
                                const exp::Scenario &Scen) {
  printBanner(FigureId, Claim);
  exp::Driver Driver;
  std::cout << "experiment engine: " << Driver.jobs()
            << " job(s) (set MEDLEY_JOBS to override; results are "
               "identical at any value)\n\n";
  exp::PolicySet &Policies = exp::PolicySet::instance();
  exp::SpeedupMatrix Matrix = exp::computeSpeedupMatrix(
      Driver, Policies, workload::Catalog::evaluationTargets(),
      exp::PolicySet::standardPolicies(), Scen);
  exp::printSpeedupMatrix(
      std::cout, "Speedup over OpenMP default (" + Scen.Name + ")", Matrix);

  auto H = Matrix.hmeanPerPolicy();
  std::cout << "measured (hmean):";
  for (size_t P = 0; P < Matrix.Policies.size(); ++P)
    std::cout << "  " << Matrix.Policies[P] << "=" << formatDouble(H[P], 2)
              << "x";
  std::cout << "\n";
  return Matrix;
}

uint64_t medley::bench::flagValue(const char *Name, const std::string &Text,
                                  uint64_t Min, uint64_t Max) {
  std::optional<uint64_t> Value = parseUnsigned(Text, Min, Max);
  if (!Value) {
    std::cerr << "invalid value '" << Text << "' for --" << Name << '\n';
    std::exit(1);
  }
  return *Value;
}
