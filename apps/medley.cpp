//===-- apps/medley.cpp - Command-line driver -----------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The command-line front end:
//
//   medley list
//       Programs, policies and scenarios available.
//   medley speedup --target cg --policy mixture --scenario large/low
//       Speedup of a policy over the OpenMP default in a paper scenario.
//   medley coexec --target cg --policy mixture --workload bt,is,art
//                 [--cores 32] [--period 20] [--timeline]
//       One co-execution run with an explicit workload; optionally prints
//       the decision timeline.
//   medley experts [--num 4]
//       The trained experts: split, sample counts, weights.
//
//===----------------------------------------------------------------------===//

#include "core/ExpertIo.h"
#include "support/ThreadPool.h"
#include "exp/Driver.h"
#include "exp/Fleet.h"
#include "exp/PolicySet.h"
#include "exp/Reporter.h"
#include "policy/Features.h"
#include "runtime/CoExecution.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "trace/Columnar.h"
#include "workload/Catalog.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

using namespace medley;

namespace {

/// Trivial --key value / --flag argument map.
class Args {
public:
  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument '" << Arg << "'\n";
        Ok = false;
        continue;
      }
      std::string Key = Arg.substr(2);
      if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0)
        Values[Key] = Argv[++I];
      else
        Values[Key] = "";
    }
  }

  bool valid() const { return Ok; }
  bool has(const std::string &Key) const { return Values.count(Key) != 0; }

  std::string get(const std::string &Key,
                  const std::string &Default = "") const {
    auto It = Values.find(Key);
    return It == Values.end() ? Default : It->second;
  }

  /// --Key as an integer in [Min, Max], or Default when absent. A value
  /// that does not parse ends the program with an error, here and in the
  /// getters below.
  unsigned getUnsigned(const std::string &Key, unsigned Default,
                       unsigned Min = 0,
                       unsigned Max = std::numeric_limits<unsigned>::max())
      const {
    return has(Key) ? static_cast<unsigned>(
                          parsed(Key, parseUnsigned(get(Key), Min, Max)))
                    : Default;
  }

  /// A 64-bit seed, decimal or 0x-prefixed hexadecimal.
  uint64_t getSeed(const std::string &Key, uint64_t Default) const {
    return has(Key) ? parsed(Key, parseUnsigned(get(Key))) : Default;
  }

  /// --Key as a finite number in [Min, Max], or Default when absent.
  double getDouble(const std::string &Key, double Default,
                   double Min = std::numeric_limits<double>::lowest(),
                   double Max = std::numeric_limits<double>::max()) const {
    return has(Key) ? parsed(Key, parseDouble(get(Key), Min, Max)) : Default;
  }

private:
  template <class T>
  T parsed(const std::string &Key, std::optional<T> Value) const {
    if (!Value) {
      std::cerr << "invalid value '" << get(Key) << "' for --" << Key
                << '\n';
      std::exit(1);
    }
    return *Value;
  }

  std::map<std::string, std::string> Values;
  bool Ok = true;
};

std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Out;
  std::istringstream SS(Csv);
  std::string Item;
  while (std::getline(SS, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

exp::Scenario scenarioByName(const std::string &Name) {
  for (const exp::Scenario &S : exp::Scenario::dynamicScenarios())
    if (S.Name == Name)
      return S;
  if (Name == exp::Scenario::isolatedStatic().Name)
    return exp::Scenario::isolatedStatic();
  if (Name == exp::Scenario::liveStudy().Name)
    return exp::Scenario::liveStudy();
  std::cerr << "unknown scenario '" << Name
            << "' (try: isolated/static, small/low, small/high, "
               "large/low, large/high, live-study)\n";
  std::exit(1);
}

/// \p Name when PolicySet::factory accepts it; otherwise ends the program
/// with an error, before anything is trained.
std::string policyByName(const std::string &Name) {
  const std::vector<std::string> &Names = exp::PolicySet::policyNames();
  if (std::find(Names.begin(), Names.end(), Name) != Names.end())
    return Name;
  std::cerr << "unknown policy '" << Name << "' (try: " << join(Names, ", ")
            << ")\n";
  std::exit(1);
}

int cmdList() {
  std::cout << "policies:  " << join(exp::PolicySet::policyNames(), " ")
            << '\n';
  std::cout << "scenarios: isolated/static";
  for (const exp::Scenario &S : exp::Scenario::dynamicScenarios())
    std::cout << ' ' << S.Name;
  std::cout << " live-study\n\nprograms:\n";
  Table T;
  T.addRow({"name", "suite", "serial work", "iterations", "ws (MB)"});
  for (const workload::ProgramSpec &Spec :
       workload::Catalog::allPrograms()) {
    T.addRow();
    T.addCell(Spec.Name);
    T.addCell(Spec.Suite);
    T.addCell(Spec.totalWork(), 0);
    T.addCell(Spec.Iterations);
    T.addCell(Spec.WorkingSetMb, 0);
  }
  T.print(std::cout);
  return 0;
}

int cmdSpeedup(const Args &A) {
  std::string Target = A.get("target", "cg");
  std::string Policy = policyByName(A.get("policy", "mixture"));
  exp::Scenario Scen = scenarioByName(A.get("scenario", "large/low"));
  if (!workload::Catalog::contains(Target)) {
    std::cerr << "unknown target '" << Target << "'\n";
    return 1;
  }

  exp::DriverOptions Options;
  Options.Repeats = A.getUnsigned("repeats", 3, 1);
  // 0 = MEDLEY_JOBS / hardware.
  Options.Jobs =
      A.getUnsigned("jobs", 0, 0, support::ThreadPool::maxSaneJobs());
  exp::Driver Driver(Options);
  exp::PolicySet &Policies = exp::PolicySet::instance();
  double S = Driver.speedup(Target, Policies.factory(Policy), Scen);
  std::cout << Target << " under '" << Policy << "' in " << Scen.Name
            << ": " << formatDouble(S, 2) << "x over the OpenMP default\n";
  return 0;
}

/// Writes \p Trace to \p Path in the requested format: "columnar" is the
/// binary format recorded at run time; "csv" runs the export post-pass
/// immediately instead of leaving it for `medley trace-export`.
int writeTrace(const trace::TickTrace &Trace, const std::string &Path,
               const std::string &Format) {
  if (Format == "columnar") {
    if (support::Error E = trace::ColumnarWriter::writeFile(Trace, Path)) {
      std::cerr << E.str() << '\n';
      return 1;
    }
  } else if (Format == "csv") {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    if (!OS) {
      std::cerr << "cannot open trace file for writing: " << Path << '\n';
      return 1;
    }
    trace::exportCsv(Trace, OS);
    if (!OS) {
      std::cerr << "trace CSV write failed: " << Path << '\n';
      return 1;
    }
  } else {
    std::cerr << "unknown trace format '" << Format
              << "' (try: columnar, csv)\n";
    return 1;
  }
  std::cout << "  trace: " << Trace.size() << " ticks -> " << Path << " ("
            << Format << ")\n";
  return 0;
}

int cmdCoexec(const Args &A) {
  std::string Target = A.get("target", "cg");
  std::string Policy = policyByName(A.get("policy", "mixture"));
  std::vector<std::string> Workload =
      splitList(A.get("workload", "bt,is"));
  for (const std::string &Name : Workload)
    if (!workload::Catalog::contains(Name)) {
      std::cerr << "unknown workload program '" << Name << "'\n";
      return 1;
    }

  runtime::CoExecutionConfig Config;
  // The availability ladder needs four cores, and walks its pattern once
  // per period: a period below the simulator's tick would only spin.
  unsigned Cores = A.getUnsigned("cores", 32, 4);
  Config.Machine = sim::MachineConfig::evaluationPlatform();
  Config.Machine.TotalCores = Cores;
  Config.Machine.MemoryBandwidth = 0.45 * Cores;
  double Period = A.getDouble("period", 20.0, Config.Tick);
  uint64_t Seed = A.getSeed("seed", 42);
  Config.Availability = [Cores, Period, Seed] {
    return sim::PeriodicAvailability::standardLadder(Cores, Period, Seed);
  };
  Config.WorkloadSeed = Seed;
  Config.WorkloadMaxThreads = std::max(2u, Cores * 5 / 16);
  Config.RecordTraces = A.has("trace-out");

  exp::PolicySet &Policies = exp::PolicySet::instance();
  auto P = Policies.factory(Policy)();
  runtime::CoExecutionResult R =
      runCoExecution(Config, workload::Catalog::byName(Target), *P,
                     runtime::patternWorkload(Workload));

  std::cout << "target " << Target << " under '" << Policy << "' with {"
            << join(Workload, ", ") << "} on " << Cores << " cores:\n";
  std::cout << "  completion: " << formatDouble(R.TargetTime, 1) << " s ("
            << R.TargetRegions << " region executions)\n";
  std::cout << "  workload throughput: "
            << formatDouble(R.WorkloadThroughput, 2) << " work units/s\n";

  if (A.has("trace-out"))
    if (int Rc = writeTrace(R.Trace, A.get("trace-out"),
                            A.get("trace-format", "columnar")))
      return Rc;

  if (A.has("timeline")) {
    std::cout << "\n  t(s)  threads\n";
    double Last = -1e9;
    for (const runtime::Decision &D : R.TargetDecisions) {
      if (D.Time - Last < 2.0)
        continue;
      Last = D.Time;
      std::cout << "  " << padLeft(formatDouble(D.Time, 1), 5) << "  "
                << padLeft(std::to_string(D.Threads), 7) << "  "
                << asciiBar(D.Threads, 1.5) << '\n';
    }
  }
  return 0;
}

int cmdTraceExport(const Args &A) {
  if (!A.has("in")) {
    std::cerr << "trace-export needs --in FILE (a columnar trace)\n";
    return 1;
  }
  trace::TickTrace Trace;
  support::Error Err;
  if (!trace::ColumnarReader::readFile(A.get("in"), Trace, &Err)) {
    std::cerr << Err.str() << '\n';
    return 1;
  }
  if (A.has("out")) {
    std::ofstream OS(A.get("out"), std::ios::binary | std::ios::trunc);
    if (!OS) {
      std::cerr << "cannot open '" << A.get("out") << "' for writing\n";
      return 1;
    }
    trace::exportCsv(Trace, OS);
    if (!OS) {
      std::cerr << "trace CSV write failed: " << A.get("out") << '\n';
      return 1;
    }
    std::cerr << "exported " << Trace.size() << " ticks to " << A.get("out")
              << '\n';
  } else {
    trace::exportCsv(Trace, std::cout);
  }
  return 0;
}

int cmdExperts(const Args &A) {
  // Load pre-trained experts from a file instead of training.
  if (A.has("load")) {
    auto Loaded = core::loadExpertsFromFile(A.get("load"));
    if (!Loaded) {
      std::cerr << "failed to load experts from '" << A.get("load") << "'\n";
      return 1;
    }
    Table T;
    T.addRow({"expert", "regime", "mean ||e||", "w R2", "m R2"});
    for (const core::Expert &E : *Loaded) {
      T.addRow();
      T.addCell(E.name());
      T.addCell(E.description());
      T.addCell(E.meanTrainingEnv());
      T.addCell(E.threadModel()->trainingR2());
      T.addCell(E.envModel()->trainingR2());
    }
    T.print(std::cout);
    return 0;
  }

  unsigned K = A.getUnsigned("num", 4);
  exp::PolicySet &Policies = exp::PolicySet::instance();
  const auto &Built = Policies.builtExperts(K);

  if (A.has("save")) {
    std::vector<core::Expert> Experts;
    for (const core::BuiltExpert &B : Built)
      Experts.push_back(B.E);
    if (!core::saveExpertsToFile(A.get("save"), Experts)) {
      std::cerr << "failed to save experts to '" << A.get("save") << "'\n";
      return 1;
    }
    std::cout << "saved " << Experts.size() << " experts to "
              << A.get("save") << '\n';
    return 0;
  }

  Table T;
  T.addRow({"expert", "regime", "thread samples", "env samples",
            "mean ||e||", "w R2", "m R2"});
  for (const core::BuiltExpert &B : Built) {
    T.addRow();
    T.addCell(B.E.name());
    T.addCell(B.E.description());
    T.addCell(static_cast<unsigned>(B.ThreadSamples));
    T.addCell(static_cast<unsigned>(B.EnvSamples));
    T.addCell(B.E.meanTrainingEnv());
    T.addCell(B.E.threadModel()->trainingR2());
    T.addCell(B.E.envModel()->trainingR2());
  }
  T.print(std::cout);
  return 0;
}

int cmdFleet(const Args &A) {
  exp::FleetScenarioConfig Config;
  Config.Shards = A.getUnsigned("shards", 16);
  Config.Tenants = A.getUnsigned("tenants", 10000);
  Config.Rounds = A.getUnsigned("rounds", 8);
  Config.TicksPerRound = A.getUnsigned("ticks", 25, 1);
  Config.ChurnRate = A.getDouble("churn", 0.01, 0.0, 1.0);
  Config.Seed = A.getSeed("seed", Config.Seed);
  Config.StormShards = A.getUnsigned("storm-shards", 0);
  Config.Policy = policyByName(A.get("policy", "mixture"));
  Config.TenantMaxThreads = A.getUnsigned("tenant-threads", 8, 1);
  Config.Jobs =
      A.getUnsigned("jobs", 0, 0, support::ThreadPool::maxSaneJobs());
  if (Config.Shards == 0 || Config.Tenants == 0) {
    std::cerr << "fleet needs at least one shard and one tenant\n";
    return 1;
  }

  std::cout << "fleet: " << Config.Tenants << " tenants across "
            << Config.Shards << " shards, " << Config.Rounds << " rounds x "
            << Config.TicksPerRound << " ticks under '" << Config.Policy
            << "'\n";

  exp::FleetResult R = exp::runFleetScenario(Config);

  std::cout << "  ticks: " << R.Stats.Totals.Ticks << "  decisions: "
            << R.DecisionsTotal << "  arrivals: "
            << R.Stats.Totals.ArrivalsDelivered << "  departures: "
            << R.Stats.Totals.DeparturesSent << "  alive: "
            << R.Stats.Totals.TasksAlive << "\n";
  std::cout << "  throughput: " << formatDouble(R.TicksPerSec / 1e3, 1)
            << " Kticks/s, " << formatDouble(R.DecisionsPerSec / 1e6, 2)
            << " Mdecisions/s (" << formatDouble(R.WallSeconds, 2)
            << " s wall)\n";
  const support::LatencyHistogram &H = R.TickLatency;
  std::cout << "  tick latency p50/p95/p99/p99.9: " << H.p50() << "/"
            << H.p95() << "/" << H.p99() << "/" << H.p999() << " ns (max "
            << H.max() << ")\n";
  std::cout << "  determinism: stats checksum " << R.Stats.Checksum
            << ", decision checksum " << R.DecisionChecksum
            << " (bit-identical at any --jobs)\n";

  if (A.has("per-shard")) {
    Table T;
    T.addRow({"shard", "ticks", "arrivals", "departures", "alive",
              "decisions"});
    for (size_t S = 0; S < R.Stats.Shards.size(); ++S) {
      const sim::FleetShardStats &Stats = R.Stats.Shards[S];
      T.addRow();
      T.addCell(static_cast<unsigned>(S));
      T.addCell(static_cast<unsigned>(Stats.Ticks));
      T.addCell(static_cast<unsigned>(Stats.ArrivalsDelivered));
      T.addCell(static_cast<unsigned>(Stats.DeparturesSent));
      T.addCell(static_cast<unsigned>(Stats.TasksAlive));
      T.addCell(static_cast<unsigned>(R.Decisions[S].Count));
    }
    T.print(std::cout);
  }
  return 0;
}

void usage() {
  std::cout
      << "medley — mixture-of-experts thread mapping (PLDI 2015 repro)\n\n"
         "usage:\n"
         "  medley list\n"
         "  medley speedup --target cg --policy mixture "
         "--scenario large/low [--repeats 3] [--jobs N]\n"
         "                 (--jobs 0 = auto: MEDLEY_JOBS env or all cores; "
         "results are\n"
         "                 identical at any value)\n"
         "  medley coexec  --target cg --policy mixture "
         "--workload bt,is,art\n"
         "                 [--cores 32] [--period 20] [--seed 42] "
         "[--timeline]\n"
         "                 [--trace-out FILE [--trace-format columnar|csv]]\n"
         "  medley trace-export --in FILE [--out FILE]\n"
         "                 (columnar binary trace -> CSV; stdout when "
         "--out is omitted)\n"
         "  medley experts [--num 4] [--save FILE | --load FILE]\n"
         "  medley fleet   [--shards 16] [--tenants 10000] [--rounds 8]\n"
         "                 [--ticks 25] [--churn 0.01] [--storm-shards 0]\n"
         "                 [--policy mixture] [--tenant-threads 8]\n"
         "                 [--seed 0xF1EE7] [--jobs N] [--per-shard]\n"
         "                 (sharded fleet scenario: deterministic aggregates"
         " at any --jobs;\n"
         "                 --per-shard prints the per-shard breakdown)\n";
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    usage();
    return 1;
  }
  std::string Command = Argv[1];
  Args A(Argc, Argv);
  if (!A.valid()) {
    usage();
    return 1;
  }
  if (Command == "list")
    return cmdList();
  if (Command == "speedup")
    return cmdSpeedup(A);
  if (Command == "coexec")
    return cmdCoexec(A);
  if (Command == "trace-export")
    return cmdTraceExport(A);
  if (Command == "experts")
    return cmdExperts(A);
  if (Command == "fleet")
    return cmdFleet(A);
  usage();
  return Command == "help" || Command == "--help" ? 0 : 1;
}
