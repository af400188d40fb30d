//===-- bench/BenchUtil.h - Shared bench helpers ----------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure bench binaries: a standard banner with
/// the paper reference and the per-benchmark speedup-figure runner.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_BENCH_BENCHUTIL_H
#define MEDLEY_BENCH_BENCHUTIL_H

#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "exp/Reporter.h"

#include <string>

namespace medley::bench {

/// Prints the standard bench banner: which paper element this regenerates
/// and what the paper reported.
void printBanner(const std::string &FigureId, const std::string &Claim);

/// Runs one per-benchmark speedup figure (the Figs 7/9/10/11/12 shape):
/// every evaluation target under the four adaptive policies in \p Scen,
/// printed as a matrix with an hmean row. Returns the matrix for further
/// summarising.
exp::SpeedupMatrix runSpeedupFigure(const std::string &FigureId,
                                    const std::string &Claim,
                                    const exp::Scenario &Scen);

} // namespace medley::bench

#endif // MEDLEY_BENCH_BENCHUTIL_H
