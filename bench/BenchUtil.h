//===-- bench/BenchUtil.h - Shared bench helpers ----------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure bench binaries: a standard banner with
/// the paper reference, the per-benchmark speedup-figure runner, and the
/// strict parser of the benches' numeric flags.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_BENCH_BENCHUTIL_H
#define MEDLEY_BENCH_BENCHUTIL_H

#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "exp/Reporter.h"

#include <cstdint>
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

/// The value of the numeric flag --\p Name: all of \p Text as a whole
/// number in [Min, Max] (parseUnsigned, support/StringUtils.h). Anything
/// else prints "invalid value '<Text>' for --<Name>" and exits 1, the
/// benches' usage code.
uint64_t flagValue(const char *Name, const std::string &Text, uint64_t Min,
                   uint64_t Max);

} // namespace medley::bench

#endif // MEDLEY_BENCH_BENCHUTIL_H
