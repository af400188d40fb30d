//===-- workload/Catalog.cpp - Benchmark program catalog -------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "workload/Catalog.h"

#include "support/Error.h"

#include <algorithm>
#include <cmath>

using namespace medley;
using namespace medley::workload;

ProgramSpec medley::workload::makeProgramSpec(const ProgramTraits &Traits) {
  ProgramSpec Spec;
  Spec.Name = Traits.Name;
  Spec.Suite = Traits.Suite;
  Spec.Iterations = Traits.Iterations;
  Spec.WorkingSetMb = Traits.WorkingSetMb;

  double PerIteration =
      Traits.TotalWork / static_cast<double>(Traits.Iterations);

  // Three regions per iteration: a compute kernel, a memory sweep and a
  // reduction/synchronisation phase. Their parameters are derived from the
  // aggregate traits; shares are typical of iterative scientific codes.
  // The phases are deliberately heterogeneous (a nearly sync-free kernel, a
  // bandwidth-hungry sweep, a barrier-dominated reduction): the best thread
  // count then depends on *which* phase meets *which* environment, the
  // regime structure that defeats one-size-fits-all models (Section 1).
  struct Derivation {
    const char *Suffix;
    double Share;
    double PhiScale;   // Blends toward 1 (compute) or below phi (reduce).
    double MuScale;
    double SigmaScale;
  };
  static const Derivation Derivations[3] = {
      {"compute", 0.45, +0.30, 0.30, 0.2},
      {"sweep", 0.35, 0.00, 1.80, 0.6},
      {"reduce", 0.20, -0.05, 0.50, 3.0},
  };

  for (const Derivation &D : Derivations) {
    RegionSpec Region;
    Region.Name = Traits.Name + "." + D.Suffix;
    Region.Work = PerIteration * D.Share;
    if (D.PhiScale > 0.0)
      Region.ParallelFraction =
          Traits.ParallelFraction + (1.0 - Traits.ParallelFraction) * D.PhiScale;
    else
      Region.ParallelFraction =
          std::max(0.5, Traits.ParallelFraction + D.PhiScale);
    // Executed behaviour includes the hidden multipliers ...
    Region.SyncCost = Traits.SyncCost * D.SigmaScale * Traits.SyncHidden;
    Region.MemIntensity =
        std::min(0.95, Traits.MemIntensity * D.MuScale * Traits.MemHidden);
    // ... while the code features are *observables* derived from the
    // nominal instruction mix only: load/store density saturates with
    // memory intensity and branch density with synchronisation structure,
    // and neither sees the hidden irregularity. No single model over these
    // features can recover the executed costs exactly.
    double NominalMu = std::min(0.95, Traits.MemIntensity * D.MuScale);
    double NominalSigma = Traits.SyncCost * D.SigmaScale;
    Region.Code.LoadStoreRatio = 0.15 + 0.50 * std::sqrt(NominalMu);
    Region.Code.InstructionWeight = D.Share;
    Region.Code.BranchRatio =
        std::min(0.35, 0.04 + 1.1 * std::sqrt(NominalSigma));
    Spec.Regions.push_back(std::move(Region));
  }
  return Spec;
}

static std::vector<ProgramSpec> buildCatalog() {
  // Name, suite, total work, iterations, phi, sigma, mu, working set (MB),
  // hidden sync multiplier, hidden memory multiplier.
  // Parameters are calibrated so the NAS scalability split of Section 5.1
  // (isolated 32-core speedup >= P/4 = 8) lands as published behaviour
  // suggests: bt/ep/lu/sp scale, cg/ft/is/mg do not. Hidden multipliers
  // encode behaviour the instruction mix cannot see: structured dense codes
  // (bt, ep, blackscholes) behave better than their mix suggests, while
  // irregular pointer-chasing codes (cg, art, canneal, freqmine) behave
  // substantially worse.
  static const ProgramTraits Traits[] = {
      // NAS (training + evaluation).
      {"bt", "NAS", 520, 60, 0.990, 0.0040, 0.30, 1200, 0.75, 0.85},
      {"cg", "NAS", 130, 75, 0.950, 0.0250, 0.70, 800, 1.55, 1.30},
      {"ep", "NAS", 740, 50, 0.999, 0.0005, 0.05, 32, 0.70, 0.70},
      {"ft", "NAS", 200, 40, 0.970, 0.0080, 0.85, 5000, 1.15, 1.35},
      {"is", "NAS", 90, 45, 0.900, 0.0300, 0.60, 1000, 1.45, 1.20},
      {"lu", "NAS", 390, 70, 0.980, 0.0090, 0.40, 600, 0.85, 0.90},
      {"mg", "NAS", 140, 55, 0.960, 0.0200, 0.80, 3500, 1.40, 1.30},
      {"sp", "NAS", 460, 65, 0.985, 0.0060, 0.35, 1200, 0.80, 0.90},
      // SpecOMP (evaluation only).
      {"ammp", "SpecOMP", 300, 60, 0.975, 0.0100, 0.35, 160, 0.90, 0.95},
      {"applu", "SpecOMP", 360, 60, 0.980, 0.0080, 0.40, 1500, 0.85, 0.90},
      {"apsi", "SpecOMP", 260, 50, 0.970, 0.0120, 0.45, 1600, 1.05, 1.00},
      {"art", "SpecOMP", 110, 60, 0.930, 0.0280, 0.75, 3700, 1.50, 1.40},
      {"equake", "SpecOMP", 150, 55, 0.950, 0.0150, 0.70, 800, 1.30, 1.25},
      {"fma3d", "SpecOMP", 340, 60, 0.978, 0.0090, 0.38, 1000, 0.90, 0.95},
      {"swim", "SpecOMP", 160, 45, 0.960, 0.0100, 0.88, 1900, 1.10, 1.40},
      {"mgrid", "SpecOMP", 150, 50, 0.955, 0.0140, 0.78, 3400, 1.25, 1.30},
      {"wupwise", "SpecOMP", 420, 60, 0.990, 0.0050, 0.25, 1500, 0.80, 0.85},
      {"galgel", "SpecOMP", 230, 55, 0.965, 0.0160, 0.50, 400, 1.10, 1.05},
      // Parsec (evaluation only).
      {"blackscholes", "Parsec", 600, 80, 0.998, 0.0010, 0.10, 620, 0.70, 0.75},
      {"bodytrack", "Parsec", 210, 70, 0.960, 0.0260, 0.45, 500, 1.40, 1.10},
      {"swaptions", "Parsec", 560, 75, 0.997, 0.0015, 0.08, 110, 0.70, 0.75},
      {"freqmine", "Parsec", 240, 65, 0.940, 0.0240, 0.55, 1300, 1.50, 1.25},
      {"fluidanimate", "Parsec", 290, 70, 0.970, 0.0180, 0.50, 650, 1.15, 1.05},
      {"canneal", "Parsec", 130, 55, 0.920, 0.0200, 0.80, 950, 1.45, 1.40},
      {"streamcluster", "Parsec", 170, 60, 0.950, 0.0120, 0.85, 110, 1.10, 1.40},
      {"ferret", "Parsec", 330, 65, 0.980, 0.0100, 0.35, 130, 0.90, 0.95},
      {"vips", "Parsec", 350, 70, 0.982, 0.0080, 0.30, 180, 0.90, 0.90},
      {"x264", "Parsec", 300, 75, 0.975, 0.0120, 0.40, 480, 1.05, 1.00},
      {"dedup", "Parsec", 180, 60, 0.940, 0.0200, 0.60, 1300, 1.35, 1.20},
      {"facesim", "Parsec", 310, 60, 0.972, 0.0130, 0.42, 780, 1.00, 1.00},
  };

  std::vector<ProgramSpec> Specs;
  Specs.reserve(std::size(Traits));
  for (const ProgramTraits &T : Traits)
    Specs.push_back(makeProgramSpec(T));
  return Specs;
}

const std::vector<ProgramSpec> &Catalog::allPrograms() {
  static const std::vector<ProgramSpec> Programs = buildCatalog();
  return Programs;
}

std::string Catalog::canonicalName(const std::string &Name) {
  if (Name == "bscholes")
    return "blackscholes";
  if (Name == "btrack")
    return "bodytrack";
  if (Name == "fmine")
    return "freqmine";
  if (Name == "fft")
    return "ft";
  return Name;
}

const ProgramSpec &Catalog::byName(const std::string &Name) {
  std::string Canonical = canonicalName(Name);
  for (const ProgramSpec &Spec : allPrograms())
    if (Spec.Name == Canonical)
      return Spec;
  reportFatalError("unknown program '" + Name + "'");
}

bool Catalog::contains(const std::string &Name) {
  std::string Canonical = canonicalName(Name);
  for (const ProgramSpec &Spec : allPrograms())
    if (Spec.Name == Canonical)
      return true;
  return false;
}

std::vector<ProgramSpec> Catalog::bySuite(const std::string &Suite) {
  std::vector<ProgramSpec> Result;
  for (const ProgramSpec &Spec : allPrograms())
    if (Spec.Suite == Suite)
      Result.push_back(Spec);
  return Result;
}

const std::vector<std::string> &Catalog::evaluationTargets() {
  static const std::vector<std::string> Targets = {
      "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp",
      "ammp", "art", "equake", "blackscholes", "bodytrack", "freqmine"};
  return Targets;
}

const std::vector<std::string> &Catalog::trainingPrograms() {
  static const std::vector<std::string> Programs = {
      "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"};
  return Programs;
}
