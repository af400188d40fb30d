//===-- sim/FaultInjector.cpp - Deterministic fault injection -------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

using namespace medley;
using namespace medley::sim;

namespace {

bool anyContains(const std::vector<FaultWindow> &Windows, double Time) {
  for (const FaultWindow &W : Windows)
    if (W.contains(Time))
      return true;
  return false;
}

/// Repeats a [Offset, Offset + Width) window every Period seconds over
/// [0, Horizon).
std::vector<FaultWindow> repeating(double Offset, double Width, double Period,
                                   double Horizon) {
  std::vector<FaultWindow> Windows;
  for (double T = Offset; T < Horizon; T += Period)
    Windows.push_back({T, std::min(T + Width, Horizon)});
  return Windows;
}

} // namespace

bool FaultPlan::empty() const {
  return SensorDropout.empty() && SensorCorruption.empty() &&
         UnplugStorm.empty() && StaleMonitor.empty();
}

FaultPlan FaultPlan::chaosSchedule(double Horizon) {
  assert(Horizon > 0.0 && "fault schedule needs a positive horizon");
  FaultPlan Plan;
  // Staggered so that every class strikes alone and (around the overlaps)
  // together: dropouts early in each cycle, corruption mid-cycle, a storm
  // straddling the corruption tail, stale reads late.
  Plan.SensorDropout = repeating(2.0, 3.0, 25.0, Horizon);
  Plan.SensorCorruption = repeating(8.0, 4.0, 25.0, Horizon);
  Plan.UnplugStorm = repeating(10.0, 5.0, 25.0, Horizon);
  Plan.StaleMonitor = repeating(18.0, 4.0, 25.0, Horizon);
  Plan.CorruptionRate = 0.75;
  Plan.DropoutRate = 0.75;
  Plan.StormCores = 0;
  return Plan;
}

FaultInjector::FaultInjector(FaultPlan Plan, uint64_t Seed)
    : Plan(std::move(Plan)), Seed(Seed), Generator(Seed) {}

void FaultInjector::reset() {
  Generator = Rng(Seed);
  Stats = support::FaultStats();
}

unsigned FaultInjector::overrideCores(double Time, unsigned PatternCores) {
  if (!anyContains(Plan.UnplugStorm, Time))
    return PatternCores;
  unsigned Forced = std::min(Plan.StormCores, PatternCores);
  if (Forced != PatternCores)
    ++Stats.UnplugOverrides;
  return Forced;
}

bool FaultInjector::monitorStale(double Time) {
  if (!anyContains(Plan.StaleMonitor, Time))
    return false;
  ++Stats.StaleTicks;
  return true;
}

void FaultInjector::corruptOneField(EnvSample &Env) {
  double *Fields[] = {&Env.WorkloadThreads, &Env.Processors, &Env.RunQueue,
                      &Env.LoadAvg1,        &Env.LoadAvg5,   &Env.CachedMemory,
                      &Env.PageFreeRate};
  double *Field = Fields[Generator.uniformInt(0, 6)];
  switch (Generator.uniformInt(0, 3)) {
  case 0:
    *Field = std::numeric_limits<double>::quiet_NaN();
    break;
  case 1:
    *Field = std::numeric_limits<double>::infinity();
    break;
  case 2:
    *Field = -std::numeric_limits<double>::infinity();
    break;
  default:
    // Finite but wildly out of range (sign flips included): the kind of
    // garbage a torn read of a /proc counter produces.
    *Field = Generator.uniform(-1.0, 1.0) * 1e18;
    break;
  }
  ++Stats.SensorCorruptions;
}

void FaultInjector::perturbEnv(double Time, EnvSample &Env) {
  if (anyContains(Plan.SensorDropout, Time) &&
      Generator.bernoulli(Plan.DropoutRate)) {
    Env = EnvSample(); // Every counter reads as zero.
    ++Stats.SensorDropouts;
  }
  if (anyContains(Plan.SensorCorruption, Time) &&
      Generator.bernoulli(Plan.CorruptionRate)) {
    corruptOneField(Env);
    // A second strike half the time: multi-field corruption exercises the
    // sanitizer beyond the single-NaN case.
    if (Generator.bernoulli(0.5))
      corruptOneField(Env);
  }
}

bool FaultInjector::corruptFile(const std::string &Path, uint64_t Seed) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::string Contents = Buffer.str();
  In.close();
  if (Contents.empty())
    return false;

  Rng Generator(Seed);
  if (Generator.bernoulli(0.5)) {
    // Truncate somewhere past the header so parsing starts then starves.
    size_t Keep = 1 + static_cast<size_t>(Generator.uniformInt(
                          0, static_cast<int64_t>(Contents.size()) - 1));
    Contents.resize(Keep);
  } else {
    // Overwrite a run of bytes with numeric-looking garbage ("nan",
    // stray signs) so tokens parse as non-finite or not at all.
    const char Garbage[] = "nan inf -nan +- 1e999 ";
    size_t Start = static_cast<size_t>(Generator.uniformInt(
        0, static_cast<int64_t>(Contents.size()) - 1));
    for (size_t I = 0; I < 64 && Start + I < Contents.size(); ++I)
      Contents[Start + I] = Garbage[I % (sizeof(Garbage) - 1)];
  }

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << Contents;
  return static_cast<bool>(Out);
}
