//===-- core/ExternalExperts.h - Non-linear and hand-written experts -*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's extension points, implemented:
///
///  * Section 9 asks "whether other modeling techniques such as SVMs
///    trained on the same data or hand written analytic models can be
///    selected by a mixtures approach". makeKnnExpert builds an expert
///    whose (w, m) pair are instance-based k-NN models over the same
///    corpus the linear experts use.
///
///  * Section 4.1 notes that hand-crafted experts have no environment
///    predictor, and suggests "periodically select an expert (with no
///    environment predictor) and see how it affects the environment ...
///    slowly building an environment predictor automatically over time".
///    makeHandcraftedExpert wraps a human-written thread heuristic and
///    attaches an OnlineEnvModel prior, which each mixture instance copies
///    and refines from the observations it feeds back.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_EXTERNALEXPERTS_H
#define MEDLEY_CORE_EXTERNALEXPERTS_H

#include "core/Expert.h"
#include "ml/KnnModel.h"
#include "ml/SvrModel.h"
#include "sim/Machine.h"

namespace medley::core {

class ExpertBuilder;

/// Builds an expert whose thread and environment predictors are k-NN
/// models trained on \p Builder's corpus ("other modeling techniques ...
/// trained on the same data", Section 9). Fatal error if the corpus is
/// empty.
Expert makeKnnExpert(ExpertBuilder &Builder, const std::string &Name,
                     KnnOptions Options = {});

/// Builds an expert whose thread and environment predictors are linear
/// epsilon-SVR models trained on \p Builder's corpus — the paper's own
/// example of an alternative modelling technique ("such as SVMs trained on
/// the same data", Section 9). Fatal error if the corpus is empty.
Expert makeSvrExpert(ExpertBuilder &Builder, const std::string &Name,
                     SvrOptions Options = {});

/// Builds a hand-written analytic expert for \p Machine:
///   * thread heuristic: claim the processors left over by the external
///     workload; stay within one socket when the loop is branchy
///     (synchronisation-bound); never exceed the machine.
///   * environment model: an OnlineEnvModel prior; every mixture instance
///     trains its own copy from its own feedback.
Expert makeHandcraftedExpert(const sim::MachineConfig &Machine,
                             const std::string &Name);

} // namespace medley::core

#endif // MEDLEY_CORE_EXTERNALEXPERTS_H
