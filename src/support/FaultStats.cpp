//===-- support/FaultStats.cpp - Fault and retry counters -----------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/FaultStats.h"

using namespace medley::support;

void FaultStats::merge(const FaultStats &Other) {
  SensorDropouts += Other.SensorDropouts;
  SensorCorruptions += Other.SensorCorruptions;
  UnplugOverrides += Other.UnplugOverrides;
  StaleTicks += Other.StaleTicks;
  CellRetries += Other.CellRetries;
  CellFailures += Other.CellFailures;
}

bool FaultStats::clean() const {
  return SensorDropouts == 0 && SensorCorruptions == 0 &&
         UnplugOverrides == 0 && StaleTicks == 0 && CellRetries == 0 &&
         CellFailures == 0;
}
