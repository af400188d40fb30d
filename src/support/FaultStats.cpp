//===-- support/FaultStats.cpp - Degradation-ladder counters --------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/FaultStats.h"

#include <sstream>

using namespace medley::support;

void FaultStats::merge(const FaultStats &Other) {
  SensorDropouts += Other.SensorDropouts;
  SensorCorruptions += Other.SensorCorruptions;
  UnplugOverrides += Other.UnplugOverrides;
  StaleTicks += Other.StaleTicks;
  SanitizedValues += Other.SanitizedValues;
  Quarantines += Other.Quarantines;
  Readmissions += Other.Readmissions;
  DefaultFallbacks += Other.DefaultFallbacks;
  ClampedPredictions += Other.ClampedPredictions;
  CellRetries += Other.CellRetries;
  CellFailures += Other.CellFailures;
}

bool FaultStats::clean() const {
  return SensorDropouts == 0 && SensorCorruptions == 0 &&
         UnplugOverrides == 0 && StaleTicks == 0 && SanitizedValues == 0 &&
         Quarantines == 0 && Readmissions == 0 && DefaultFallbacks == 0 &&
         ClampedPredictions == 0 && CellRetries == 0 && CellFailures == 0;
}

std::string FaultStats::summary() const {
  std::ostringstream OS;
  auto Emit = [&OS, First = true](const char *Key, uint64_t N) mutable {
    if (N == 0)
      return;
    if (!First)
      OS << ' ';
    First = false;
    OS << Key << '=' << N;
  };
  Emit("dropouts", SensorDropouts);
  Emit("corruptions", SensorCorruptions);
  Emit("unplugs", UnplugOverrides);
  Emit("stale", StaleTicks);
  Emit("sanitized", SanitizedValues);
  Emit("quarantines", Quarantines);
  Emit("readmissions", Readmissions);
  Emit("fallbacks", DefaultFallbacks);
  Emit("clamped", ClampedPredictions);
  Emit("retries", CellRetries);
  Emit("cell-failures", CellFailures);
  return OS.str();
}
