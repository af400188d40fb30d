//===-- bench/bench_tab1_expert_weights.cpp - Table 1 and Figure 5 --------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Table 1: the learned regression weights of each expert's thread
// predictor w and environment predictor m over the 10 features, plus the
// regression constant beta. Figure 5: how the training data is split into
// the four experts (program scaling behaviour x hardware state).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "policy/Features.h"
#include "support/Table.h"

#include <iostream>

using namespace medley;

int main() {
  bench::printBanner(
      "Table 1 + Figure 5 (expert weights and training split)",
      "10 selected features with per-expert least-squares weights for the "
      "thread predictor w and environment predictor m");

  exp::PolicySet &Policies = exp::PolicySet::instance();
  const auto &Built = Policies.builtExperts(4);

  // Figure 5: the training split.
  Table Split("Figure 5: training-program scalability split (>= P/4 rule)");
  Split.addRow({"program", "cores", "isolated speedup", "set"});
  for (const core::ScalabilityEntry &E :
       Policies.builder().scalabilityTable()) {
    Split.addRow();
    Split.addCell(E.Program);
    Split.addCell(E.PlatformCores);
    Split.addCell(E.IsolatedSpeedup);
    Split.addCell(E.Scalable ? "scalable" : "non-scalable");
  }
  Split.print(std::cout);
  std::cout << '\n';

  for (const core::BuiltExpert &B : Built)
    std::cout << B.E.name() << ": " << B.E.description() << " ("
              << B.ThreadSamples << " thread samples, " << B.EnvSamples
              << " environment samples)\n";
  std::cout << '\n';

  // Table 1: weights in standardised feature space.
  Table Weights("Table 1: regression weights per expert (standardised "
                "feature space)");
  Weights.addRow();
  Weights.addCell("feature");
  for (const core::BuiltExpert &B : Built) {
    Weights.addCell(B.E.name() + ".w");
    Weights.addCell(B.E.name() + ".m");
  }
  const auto &Names = policy::featureNames();
  for (size_t F = 0; F < Names.size(); ++F) {
    Weights.addRow();
    Weights.addCell("f" + std::to_string(F + 1) + " " + Names[F]);
    for (const core::BuiltExpert &B : Built) {
      Weights.addCell(B.E.threadModel()->weights()[F]);
      Weights.addCell(B.E.envModel()->weights()[F]);
    }
  }
  Weights.addRow();
  Weights.addCell("beta (regression constant)");
  for (const core::BuiltExpert &B : Built) {
    Weights.addCell(B.E.threadModel()->intercept());
    Weights.addCell(B.E.envModel()->intercept());
  }
  Weights.print(std::cout);

  std::cout << "\ntraining R^2:";
  for (const core::BuiltExpert &B : Built)
    std::cout << "  " << B.E.name() << ": w=" << B.E.threadModel()->trainingR2()
              << " m=" << B.E.envModel()->trainingR2();
  std::cout << '\n';
  return 0;
}
