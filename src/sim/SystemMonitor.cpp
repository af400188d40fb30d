//===-- sim/SystemMonitor.cpp - /proc-style system monitor -----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/SystemMonitor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::sim;

SystemMonitor::SystemMonitor(const MachineConfig &Config)
    : Config(Config), Load1(60.0), Load5(300.0) {
  assert(Config.valid() && "invalid machine configuration");
  AvailableCores = Config.TotalCores;
}

void SystemMonitor::update(unsigned NewRunnable, unsigned NewCores,
                           double NewUsedMemoryMb, double Dt) {
  assert(Dt > 0.0 && "tick length must be positive");
  double PreviousMemory = UsedMemoryMb;

  RunnableThreads = NewRunnable;
  AvailableCores = NewCores;
  UsedMemoryMb = std::min(NewUsedMemoryMb, Config.TotalMemoryMb);

  Load1.update(static_cast<double>(NewRunnable), Dt);
  Load5.update(static_cast<double>(NewRunnable), Dt);

  // Page free-list turnover: memory allocation/release churn per second,
  // normalised by total memory. Smoothed to avoid a spiky feature.
  if (HasMemorySample) {
    double Churn =
        std::fabs(UsedMemoryMb - PreviousMemory) / (Config.TotalMemoryMb * Dt);
    PageRate = 0.8 * PageRate + 0.2 * std::min(Churn, 1.0);
  }
  HasMemorySample = true;
}

EnvSample SystemMonitor::sample(unsigned ObserverThreads) const {
  EnvSample Env;
  unsigned Others = RunnableThreads > ObserverThreads
                        ? RunnableThreads - ObserverThreads
                        : 0;
  Env.WorkloadThreads = static_cast<double>(Others);
  Env.Processors = static_cast<double>(AvailableCores);
  Env.RunQueue = static_cast<double>(RunnableThreads);
  Env.LoadAvg1 = Load1.value();
  Env.LoadAvg5 = Load5.value();
  Env.CachedMemory =
      1.0 - std::min(1.0, UsedMemoryMb / Config.TotalMemoryMb);
  Env.PageFreeRate = PageRate;
  return Env;
}

double SystemMonitor::envNorm(unsigned ObserverThreads) const {
  return sample(ObserverThreads)
      .scaledNorm(static_cast<double>(Config.TotalCores));
}

void SystemMonitor::reset() {
  Load1.reset();
  Load5.reset();
  RunnableThreads = 0;
  AvailableCores = Config.TotalCores;
  UsedMemoryMb = 0.0;
  PageRate = 0.0;
  HasMemorySample = false;
}
