//===-- core/ExpertBuilder.h - Offline expert training ----------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline training pipeline of Section 5: co-execute NAS target /
/// workload pairs on the 12- and 32-core platforms while exploring thread
/// counts, label every parallel-loop decision with the best thread number
/// for the observed environment and with the environment realised at the
/// next decision, then split the corpus by program scaling behaviour and
/// platform (Figure 5) and fit each expert's (w, m) model pair by least
/// squares. Training is a one-off cost; experts are never retrained online.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_EXPERTBUILDER_H
#define MEDLEY_CORE_EXPERTBUILDER_H

#include "core/Expert.h"
#include "sim/Machine.h"

#include <cstdint>
#include <vector>

namespace medley::core {

/// Training-run parameters.
struct TrainingConfig {
  /// Training programs; defaults to the NAS suite (Section 5.2.1).
  std::vector<std::string> Programs;

  /// Training platforms; defaults to the 12- and 32-core machines.
  std::vector<sim::MachineConfig> Platforms;

  /// Simulated seconds per target/workload pair. Long enough for the
  /// 1-/5-minute load averages to reach the levels deployment will see.
  double RunDuration = 150.0;
  double Tick = 0.1;
  uint64_t Seed = 0x7EA1;
  double AvailabilityPeriod = 8.0; ///< Hardware-change period while training.

  /// The paper's scalability criterion: a program is scalable if its
  /// isolated speedup reaches P / ScalabilityDivisor (Section 5.1 uses 4).
  double ScalabilityDivisor = 4.0;

  /// Environment-predictor regularisation as a fraction of the training
  /// subset size. Strong shrinkage pulls an expert's environment
  /// predictions toward its own regime's mean, which keeps it accurate at
  /// home and increasingly wrong away from home — precisely the property
  /// that makes environment error a proxy for expert fitness.
  double EnvRidgeFraction = 0.3;

  /// Platform on which the program-level scalability split is decided
  /// (Figure 5 separates the *programs* once, then trains per platform).
  /// Defaults to the last platform (the 32-core evaluation machine).
  size_t SplitPlatformIndex = 1;

  /// Fills in the defaults above.
  static TrainingConfig standard();
};

/// One labelled decision point from the training runs.
struct TrainingSample {
  Vec Features;               ///< The 10-feature vector f_t.
  double BestThreads = 1.0;   ///< Best thread count for this state.
  double NextEnvNorm = 0.0;   ///< ||e_{t+1}|| realised at the next decision.
  bool HasNextEnv = false;
  std::string Program;
  size_t PlatformIndex = 0;
  unsigned PlatformCores = 0;
  /// Program-level isolated speedup / core count on the split platform.
  double ScalabilityFraction = 0.0;

  /// Whether the machine was oversubscribed (runnable threads exceeded
  /// available processors) when the sample was taken — the "H/W
  /// configuration" axis of the expert split.
  bool Contended = false;
};

/// An expert plus the sizes of its training sets (Table 1). The rows are
/// not kept: ExpertBuilder::trainingData copies them out of the corpus
/// again on request.
struct BuiltExpert {
  Expert E;
  size_t Split = 0;         ///< Its subset of the split, before ordering.
  size_t ThreadSamples = 0; ///< Rows its thread predictor w was fit on.
  size_t EnvSamples = 0;    ///< Rows its environment predictor m was fit on.
};

/// One expert's training sets as datasets grouped by program.
struct ExpertData {
  Dataset Threads;
  Dataset Envs;
};

/// Row of the Figure-5 training-split table.
struct ScalabilityEntry {
  std::string Program;
  unsigned PlatformCores = 0;
  double IsolatedSpeedup = 0.0;
  bool Scalable = false;
};

/// Runs the training matrix once and builds experts of any granularity.
class ExpertBuilder {
public:
  explicit ExpertBuilder(TrainingConfig Config = TrainingConfig::standard());

  /// Runs all training simulations (idempotent; called lazily by the
  /// accessors below).
  void collect();

  const std::vector<TrainingSample> &samples();

  /// Scaler over the entire corpus's features (used by the selectors).
  FeatureScaler featureScaler();

  /// Builds \p NumExperts experts (supported: 1, 2, 4, 8), ordered by the
  /// mean environment norm of their training data (E1 = calmest regime).
  /// 1 = monolithic; 2 = hardware-state split (uncontended/contended);
  /// 4 = program scaling behaviour x hardware state (the Figure-5 split,
  /// with "H/W configuration" realised as the machine state — see
  /// DESIGN.md §5); 8 = scaling quartiles x hardware state.
  std::vector<BuiltExpert> build(unsigned NumExperts);

  /// Like build(), but trains on a deterministic \p Fraction of the corpus
  /// (stride subsampling). Supports the Section-9 study of the trade-off
  /// between the number of experts and the training data volume.
  std::vector<BuiltExpert> buildSubsampled(unsigned NumExperts,
                                           double Fraction);

  /// The Figure-14(c) aggregate model: one thread predictor trained on the
  /// union of all experts' data.
  LinearModel monolithicThreadModel();

  /// The training sets of \p B, one of build(NumExperts)'s experts, copied
  /// out of the corpus for analysis (Figure 6's feature impact,
  /// leave-one-program-out accuracy).
  ExpertData trainingData(unsigned NumExperts, const BuiltExpert &B);

  /// The Figure-5 split table.
  std::vector<ScalabilityEntry> scalabilityTable();

  const TrainingConfig &config() const { return Config; }

private:
  void collectPair(const std::string &TargetName,
                   const std::string &WorkloadName, size_t PlatformIndex,
                   uint64_t Seed);

  /// Scalability fraction S(P)/P for \p Program on platform \p Platform.
  double scalabilityFraction(const std::string &Program,
                             const sim::MachineConfig &Platform) const;

  /// Expert index for a sample under a \p NumExperts split; kept in sync
  /// with the subset descriptions built in build(). \p BandEdges are the
  /// scaling-quartile boundaries used by the 8-expert split.
  size_t expertIndexFor(const TrainingSample &Sample, unsigned NumExperts,
                        const std::vector<double> &BandEdges) const;

  /// Scaling-quartile edges of the 8-expert split (empty otherwise).
  std::vector<double> bandEdges(unsigned NumExperts) const;

  /// Corpus indices of one expert's training sets.
  struct SplitRows {
    std::vector<size_t> Threads;
    std::vector<size_t> Envs; ///< The thread rows that have a successor.
  };

  /// The rows subset \p Split of a \p NumExperts split trains on, taken
  /// from every \p Stride-th sample. A subset too thin to fit falls back
  /// to its whole hardware-state half; the 1-expert split is the corpus.
  SplitRows splitRows(unsigned NumExperts, size_t Split, size_t Stride,
                      const std::vector<double> &BandEdges) const;

  /// Shared implementation of build()/buildSubsampled(): trains one expert
  /// at a time, reading every \p Stride-th sample in place.
  std::vector<BuiltExpert> buildFrom(unsigned NumExperts, size_t Stride);

  TrainingConfig Config;
  bool Collected = false;
  std::vector<TrainingSample> Samples;
  bool HaveScaler = false;
  FeatureScaler CorpusScaler;
};

} // namespace medley::core

#endif // MEDLEY_CORE_EXPERTBUILDER_H
