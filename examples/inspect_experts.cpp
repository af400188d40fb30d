//===-- examples/inspect_experts.cpp - Look inside the mixture ------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Inspects the trained experts: the Figure-5 scalability split, each
// expert's regression weights and cross-validated accuracy, and how closely
// the mixture's decisions track the oracle in a dynamic run.
//
//===----------------------------------------------------------------------===//

#include "core/MixtureOfExperts.h"
#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "ml/CrossValidation.h"
#include "support/Table.h"

#include <cmath>
#include <iostream>

using namespace medley;

int main() {
  exp::PolicySet &Policies = exp::PolicySet::instance();
  core::ExpertBuilder &Builder = Policies.builder();

  // 1. The Figure-5 split: which programs count as scalable.
  Table Split("Training-program scalability (isolated speedup, P/4 rule)");
  Split.addRow({"program", "cores", "speedup", "scalable"});
  for (const core::ScalabilityEntry &E : Builder.scalabilityTable()) {
    Split.addRow();
    Split.addCell(E.Program);
    Split.addCell(E.PlatformCores);
    Split.addCell(E.IsolatedSpeedup);
    Split.addCell(E.Scalable ? "yes" : "no");
  }
  Split.print(std::cout);
  std::cout << '\n';

  // 2. Per-expert model quality (leave-one-program-out accuracy).
  std::cout << "Corpus: " << Builder.samples().size()
            << " labelled decisions\n\n";
  Table Quality("Expert model quality");
  Quality.addRow({"expert", "role", "samples", "w acc", "w R2", "m acc",
                  "m R2"});
  for (const core::BuiltExpert &B : Policies.builtExperts(4)) {
    core::ExpertData Data = Builder.trainingData(4, B);
    AccuracyOptions Acc;
    Acc.RelativeTolerance = 0.25;
    Acc.AbsoluteTolerance = 2.0;
    Quality.addRow();
    Quality.addCell(B.E.name());
    Quality.addCell(B.E.description());
    Quality.addCell(static_cast<unsigned>(B.ThreadSamples));
    Quality.addCell(leaveOneGroupOut(Data.Threads, {}, Acc).Accuracy);
    Quality.addCell(B.E.threadModel()->trainingR2());
    AccuracyOptions EnvAcc;
    EnvAcc.RelativeTolerance = 0.2;
    EnvAcc.AbsoluteTolerance = 0.05;
    Quality.addCell(leaveOneGroupOut(Data.Envs, {}, EnvAcc).Accuracy);
    Quality.addCell(B.E.envModel()->trainingR2());
  }
  Quality.print(std::cout);
  std::cout << '\n';

  // 3. How far from the oracle do the deployed policies land?
  exp::Driver Driver;
  exp::Scenario Scen = exp::Scenario::largeLow();
  Table Compare("Speedup over default, large/low scenario (spot check)");
  Compare.addRow({"target", "offline", "analytic", "mixture"});
  for (const char *Target : {"lu", "cg", "ep", "mg"}) {
    Compare.addRow();
    Compare.addCell(Target);
    for (const char *Policy : {"offline", "analytic", "mixture"})
      Compare.addCell(Driver.speedup(Target, Policies.factory(Policy), Scen));
  }
  Compare.print(std::cout);
  return 0;
}
