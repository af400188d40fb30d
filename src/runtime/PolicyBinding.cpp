//===-- runtime/PolicyBinding.cpp - Bind policies to programs -----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "runtime/PolicyBinding.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

using namespace medley;
using namespace medley::runtime;

namespace {

/// One slot of the direct-mapped decision memo. The key quadruple
/// (Region, EnvEpoch, WorkloadBits, MaxThreads) pins every input of
/// buildFeatures bitwise: code features come from the RegionSpec, the
/// environment epoch proves the sampled Env unchanged apart from
/// WorkloadThreads (keyed by its raw bits), and TotalCores is a binding
/// constant. A valid slot therefore stores exactly the FeatureVector a
/// rebuild would produce — and the decision derived from it.
struct MemoEntry {
  bool Valid = false;
  const workload::RegionSpec *Region = nullptr;
  uint64_t Epoch = 0;
  uint64_t WorkloadBits = 0;
  unsigned MaxThreads = 0;
  policy::FeatureVector Features;
  unsigned Threads = 0;
  unsigned Ceiling = 0;
  bool Clamped = false;
};

constexpr size_t MemoSlots = 64; // Power of two; ~8 KB per binding.

struct MemoTable {
  std::array<MemoEntry, MemoSlots> Entries;

  static uint64_t mix(uint64_t X) {
    X ^= X >> 33;
    X *= 0xFF51AFD7ED558CCDULL;
    X ^= X >> 33;
    return X;
  }

  MemoEntry &slotFor(const workload::RegionContext &Context,
                     uint64_t WorkloadBits) {
    uint64_t H = mix(reinterpret_cast<uintptr_t>(Context.Region) ^
                     mix(Context.EnvEpoch) ^ mix(WorkloadBits) ^
                     Context.MaxThreads);
    return Entries[H & (MemoSlots - 1)];
  }
};

uint64_t doubleBits(double X) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(X));
  std::memcpy(&Bits, &X, sizeof(Bits));
  return Bits;
}

/// Per-binding chooser state: feature scratch plus the optional memo.
struct BindingState {
  policy::DecisionScratch Scratch;
  MemoTable Memo;
};

} // namespace

unsigned medley::runtime::threadCeiling(const policy::FeatureVector &Features) {
  // f5 is the observed available-processor count; buildFeatures guarantees
  // it is finite and non-negative. During a zero-available window the
  // ceiling is 1: a program cannot run with no threads, but it must not
  // pile more onto a machine that has none.
  double Processors = Features.Values[4];
  return policy::roundThreads(
      std::min(Processors, static_cast<double>(Features.MaxThreads)),
      std::max(1u, Features.MaxThreads));
}

workload::ThreadChooser
medley::runtime::bindPolicy(policy::ThreadPolicy &Policy, unsigned TotalCores,
                            std::vector<Decision> *Trace) {
  return bindPolicy(Policy, TotalCores, BindOptions{false, Trace});
}

workload::ThreadChooser
medley::runtime::bindPolicy(policy::ThreadPolicy &Policy, unsigned TotalCores,
                            BindOptions Options) {
  // One state block per binding: the chooser is called once per region
  // decision on a single worker, so the feature buffers and the memo are
  // reused allocation-free across decisions without any synchronisation.
  auto State = std::make_shared<BindingState>();
  const bool Memoize = Options.Memoize;
  const bool Pure = Policy.decisionsArePure();
  std::vector<Decision> *Trace = Options.Trace;
  return [&Policy, TotalCores, Trace, Memoize, Pure,
          State](const workload::RegionContext &Context) {
    // Epoch 0 marks a context assembled outside the simulator: no epoch
    // proof exists there, so those decisions always take the full path.
    const uint64_t WorkloadBits = doubleBits(Context.Env.WorkloadThreads);
    MemoEntry *Slot = nullptr;
    bool Hit = false;
    if (Memoize && Context.EnvEpoch != 0) {
      Slot = &State->Memo.slotFor(Context, WorkloadBits);
      Hit = Slot->Valid && Slot->Region == Context.Region &&
            Slot->Epoch == Context.EnvEpoch &&
            Slot->WorkloadBits == WorkloadBits &&
            Slot->MaxThreads == Context.MaxThreads;
    }

    unsigned Threads, Ceiling;
    bool Clamped;
    double EnvNorm;
    if (Hit && Pure) {
      // Full reuse: a pure policy maps bit-identical features to the same
      // decision, and its beginDecisionEpoch is a no-op by contract.
      Threads = Slot->Threads;
      Ceiling = Slot->Ceiling;
      Clamped = Slot->Clamped;
      EnvNorm = Slot->Features.EnvNorm;
    } else {
      policy::FeatureVector &Features =
          Hit ? Slot->Features : State->Scratch.Features;
      // Epoch boundary first: a registry-backed policy swaps to the latest
      // published snapshot here, so the decision below runs entirely
      // against one consistent expert set.
      Policy.beginDecisionEpoch();
      if (Hit) {
        // The stored vector is bitwise what buildFeatures would produce;
        // only the decision-time metadata needs refreshing.
        Features.Now = Context.Now;
      } else {
        policy::buildFeatures(Context, TotalCores, Features);
      }
      unsigned Raw = Policy.select(Features);
      Ceiling = threadCeiling(Features);
      Threads = std::clamp(Raw, 1u, Ceiling);
      Clamped = Threads != Raw;
      EnvNorm = Features.EnvNorm;
      if (Slot && !Hit) {
        Slot->Valid = true;
        Slot->Region = Context.Region;
        Slot->Epoch = Context.EnvEpoch;
        Slot->WorkloadBits = WorkloadBits;
        Slot->MaxThreads = Context.MaxThreads;
        Slot->Features = Features;
        Slot->Threads = Threads;
        Slot->Ceiling = Ceiling;
        Slot->Clamped = Clamped;
      } else if (Slot) {
        // Impure-policy hit: the decision may legitimately differ from the
        // stored one (the policy adapted in between); keep it fresh for
        // any later pure consumers of the slot's decision fields.
        Slot->Threads = Threads;
        Slot->Clamped = Clamped;
      }
    }

    if (Trace) {
      Decision D;
      D.Time = Context.Now;
      D.Threads = Threads;
      D.EnvNorm = EnvNorm;
      D.AvailableProcessors = Ceiling;
      D.Clamped = Clamped;
      Trace->push_back(D);
    }
    return Threads;
  };
}

workload::RegionObserver
medley::runtime::bindObserver(policy::ThreadPolicy &Policy) {
  return [&Policy](const workload::RegionOutcome &Outcome) {
    Policy.observe(Outcome);
  };
}
