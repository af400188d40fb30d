//===-- bench/bench_fig06_feature_impact.cpp - Figure 6 -------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Figure 6: "Impact of selected features on the experts" — per expert, the
// drop in prediction accuracy when one feature is removed (pi), normalised
// into the pie-chart slices. The paper finds feature importance varies by
// expert (run-queue size critical to one expert, #processors similar for
// all).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ml/FeatureImpact.h"
#include "support/Table.h"

#include <iostream>

using namespace medley;

int main() {
  bench::printBanner(
      "Figure 6 (feature impact pi per expert)",
      "feature importance differs across experts; e.g. runq-sz is critical "
      "to one expert and minor to the others, #processors matters to all");

  exp::PolicySet &Policies = exp::PolicySet::instance();
  const auto &Built = Policies.builtExperts(4);

  Table T("Normalised feature impact (pie-chart slices) per expert's "
          "thread predictor");
  T.addRow();
  T.addCell("feature");
  for (const core::BuiltExpert &B : Built)
    T.addCell(B.E.name());
  T.addCell("mean pi");

  std::vector<std::vector<FeatureImpact>> PerExpert;
  for (const core::BuiltExpert &B : Built)
    PerExpert.push_back(computeFeatureImpacts(
        Policies.builder().trainingData(4, B).Threads));

  size_t NumFeatures = PerExpert.front().size();
  for (size_t F = 0; F < NumFeatures; ++F) {
    T.addRow();
    T.addCell(PerExpert.front()[F].Name);
    double Sum = 0.0;
    for (const auto &Impacts : PerExpert) {
      T.addCell(Impacts[F].Normalized, 3);
      Sum += Impacts[F].Normalized;
    }
    T.addCell(Sum / double(PerExpert.size()), 3);
  }
  T.print(std::cout);

  // The paper's qualitative observation: importance varies across experts.
  double MaxSpread = 0.0;
  std::string SpreadFeature;
  for (size_t F = 0; F < NumFeatures; ++F) {
    double Lo = 1.0, Hi = 0.0;
    for (const auto &Impacts : PerExpert) {
      Lo = std::min(Lo, Impacts[F].Normalized);
      Hi = std::max(Hi, Impacts[F].Normalized);
    }
    if (Hi - Lo > MaxSpread) {
      MaxSpread = Hi - Lo;
      SpreadFeature = PerExpert.front()[F].Name;
    }
  }
  std::cout << "\nlargest cross-expert spread: '" << SpreadFeature << "' ("
            << MaxSpread << ")\n";
  return 0;
}
