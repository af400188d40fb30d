//===-- policy/AnalyticPolicy.cpp - Interval-sampling analytic model ------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "policy/AnalyticPolicy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::policy;

AnalyticPolicy::AnalyticPolicy() : AnalyticPolicy(Options()) {}

AnalyticPolicy::AnalyticPolicy(Options Opts)
    : Opts(Opts), Generator(Opts.Seed) {
  assert(Opts.SampleWindow >= 1 && "need at least one sample per probe");
  assert(Opts.HoldInterval > 0.0 && "hold interval must be positive");
  assert(Opts.KneeFraction > 0.0 && Opts.KneeFraction < 1.0 &&
         "knee fraction must be in (0, 1)");
}

void AnalyticPolicy::startExploration(unsigned MaxThreads) {
  // Two distinct probe thread counts. The first exploration draws them at
  // random (the PLDI'14 scheme's random probes); later explorations probe
  // around the currently held optimum, jittered so repeated probes do not
  // alias with a periodic environment.
  unsigned First, Second;
  if (!Primed || HeldThreads == 0) {
    First = static_cast<unsigned>(Generator.uniformInt(1, MaxThreads));
    Second = First;
    while (Second == First && MaxThreads > 1)
      Second = static_cast<unsigned>(Generator.uniformInt(1, MaxThreads));
  } else {
    double Down = Generator.uniform(0.5, 0.8);
    double Up = Generator.uniform(1.25, 1.6);
    First = roundThreads(HeldThreads * Down, MaxThreads);
    Second = static_cast<unsigned>(std::clamp<long>(
        std::lround(HeldThreads * Up) + 1, 1, MaxThreads));
    if (Second == First)
      Second = std::min(MaxThreads, First + 1);
  }
  SampleThreads[0] = First;
  SampleThreads[1] = Second;
  SampleRate[0] = SampleRate[1] = 0.0;
  SampleSeen = 0;
  SampleRateSum = 0.0;
  Phase = PhaseKind::SampleFirst;
}

unsigned AnalyticPolicy::select(const FeatureVector &Features) {
  LastNow = Features.Now;
  MaxThreadsSeen = Features.MaxThreads;
  if (!Primed) {
    startExploration(Features.MaxThreads);
    Primed = true;
  }
  switch (Phase) {
  case PhaseKind::SampleFirst:
    return SampleThreads[0];
  case PhaseKind::SampleSecond:
    return SampleThreads[1];
  case PhaseKind::Hold:
    if (DriftDetected || Features.Now - HoldStart >= Opts.HoldInterval) {
      startExploration(Features.MaxThreads);
      return SampleThreads[0];
    }
    return HeldThreads;
  }
  return HeldThreads;
}

void AnalyticPolicy::observe(const workload::RegionOutcome &Outcome) {
  if (Phase == PhaseKind::Hold) {
    // Passive monitoring (the PLDI'14 scheme watches instantaneous
    // performance): compare each region's rate with its rate when the
    // hold began; a large drift means the environment changed.
    auto It = std::find_if(
        HoldReferenceRates.begin(), HoldReferenceRates.end(),
        [&](const auto &Entry) { return Entry.first == Outcome.Region; });
    if (It == HoldReferenceRates.end()) {
      // Grows to the program's region count once; clear() keeps capacity.
      HoldReferenceRates.emplace_back(Outcome.Region, Outcome.rate());
      return;
    }
    double Reference = It->second;
    if (Reference > 0.0) {
      double Drift = Outcome.rate() / Reference - 1.0;
      if (Drift > Opts.DriftThreshold || Drift < -Opts.DriftThreshold)
        DriftDetected = true;
    }
    return;
  }

  SampleRateSum += Outcome.rate();
  ++SampleSeen;
  if (SampleSeen < Opts.SampleWindow)
    return;

  double Rate = SampleRateSum / static_cast<double>(SampleSeen);
  SampleSeen = 0;
  SampleRateSum = 0.0;
  if (Phase == PhaseKind::SampleFirst) {
    SampleRate[0] = Rate;
    Phase = PhaseKind::SampleSecond;
    return;
  }
  SampleRate[1] = Rate;
  fitAndHold();
}

void AnalyticPolicy::fitAndHold() {
  unsigned N1 = SampleThreads[0], N2 = SampleThreads[1];
  double R1 = std::max(SampleRate[0], 1e-9);
  double R2 = std::max(SampleRate[1], 1e-9);
  unsigned MaxThreads = std::max(1u, MaxThreadsSeen);

  unsigned Choice;
  if (N1 == N2) {
    Choice = N1;
  } else {
    // Regress the Amdahl-style curve 1/rate = alpha + beta / n through the
    // two observations, then take the efficiency knee: the smallest n whose
    // modelled rate reaches KneeFraction of the asymptotic rate 1/alpha.
    double InvN1 = 1.0 / N1, InvN2 = 1.0 / N2;
    double Beta = (1.0 / R1 - 1.0 / R2) / (InvN1 - InvN2);
    double Alpha = 1.0 / R1 - Beta * InvN1;
    if (Alpha <= 0.0 || Beta <= 0.0) {
      // Degenerate fit: keep whichever sample was faster.
      Choice = R1 >= R2 ? N1 : N2;
    } else {
      double Knee = Beta / (Alpha * (1.0 / Opts.KneeFraction - 1.0));
      long N = static_cast<long>(std::ceil(Knee));
      // The fitted curve is monotone, so it cannot see a peak; never
      // extrapolate far beyond the probed range.
      long Probed = static_cast<long>(std::max(N1, N2));
      N = std::min(N, Probed + Probed / 2);
      N = std::clamp<long>(N, 1, static_cast<long>(MaxThreads));
      Choice = static_cast<unsigned>(N);
    }
  }

  HeldThreads = Choice;
  HoldStart = LastNow;
  HoldReferenceRates.clear();
  DriftDetected = false;
  Phase = PhaseKind::Hold;
}

void AnalyticPolicy::reset() {
  Generator = Rng(Opts.Seed);
  Phase = PhaseKind::SampleFirst;
  SampleThreads[0] = SampleThreads[1] = 1;
  SampleRate[0] = SampleRate[1] = 0.0;
  SampleSeen = 0;
  SampleRateSum = 0.0;
  HeldThreads = 1;
  HoldStart = 0.0;
  LastNow = 0.0;
  MaxThreadsSeen = 1;
  Primed = false;
  HoldReferenceRates.clear();
  DriftDetected = false;
}

const std::string &AnalyticPolicy::name() const {
  static const std::string Name = "analytic";
  return Name;
}
