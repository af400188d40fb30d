//===-- perfbench/main.cpp - Benchmark entry point ------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
//   medley_perfbench --workload grid|fleet|decide --seed N --seconds S
//                    [--trace 0|1] [--tiny]
//
// Runs one workload on one worker thread and prints a single JSON line:
// the host shape, attempted/failed operation counts, the output digest,
// any mismatches, and every metric the run measured. perfbench/run.py
// builds this binary and turns that line into the benchmark's result.
// The exit code is 0 only when no operation failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

using namespace medley;
using namespace medley::perfbench;

#ifndef MEDLEY_PERFBENCH_BUILD_TYPE
#define MEDLEY_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MEDLEY_PERFBENCH_COMPILER
#define MEDLEY_PERFBENCH_COMPILER "unknown"
#endif

double medley::perfbench::quantile(std::vector<double> &Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  auto Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Samples.size())));
  return Samples[std::clamp<size_t>(Rank, 1, Samples.size()) - 1];
}

void RepeatedTimes::record(size_t Position, double Seconds) {
  if (Position >= ByPosition.size())
    ByPosition.resize(Position + 1);
  ByPosition[Position].push_back(Seconds);
}

double medley::perfbench::fastest(const std::vector<double> &Samples) {
  return Samples.empty() ? 0.0
                         : *std::min_element(Samples.begin(), Samples.end());
}

double RepeatedTimes::fastestPass() const {
  double Total = 0.0;
  for (double Ms : fastestMs())
    Total += Ms / 1e3;
  return Total;
}

std::vector<double> RepeatedTimes::fastestMs() const {
  std::vector<double> Fastest;
  for (const std::vector<double> &Samples : ByPosition)
    Fastest.push_back(fastest(Samples) * 1e3);
  return Fastest;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&Original);
  if (sched_getaffinity(0, sizeof(Original), &Original) != 0)
    return;
  for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Original))
      Cpus.push_back(Cpu);
}

CpuRotation::~CpuRotation() {
  if (Moves > 0)
    sched_setaffinity(0, sizeof(Original), &Original);
}

void CpuRotation::beforePass() {
  const double ElapsedS = Clock.seconds();
  if (Cpus.size() < 2 || (Moves > 0 && ElapsedS - LastMoveS < 1.0))
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Moves % Cpus.size()], &One);
  // On failure the thread stays where it is; only steadiness suffers.
  sched_setaffinity(0, sizeof(One), &One);
  ++Moves;
  LastMoveS = ElapsedS;
}

double medley::perfbench::peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // Linux: KiB.
}

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "medley_perfbench: " << Why
            << "\nusage: medley_perfbench --workload grid|fleet|decide "
               "--seed N --seconds S [--trace 0|1] [--tiny]\n";
  std::exit(2);
}

std::string argValue(int Argc, char **Argv, int &I) {
  if (I + 1 >= Argc)
    usage(std::string("missing value for ") + Argv[I]);
  return Argv[++I];
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Options;
  std::string Workload;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    try {
      if (Arg == "--workload")
        Workload = argValue(Argc, Argv, I);
      else if (Arg == "--seed")
        Options.Seed = std::stoull(argValue(Argc, Argv, I));
      else if (Arg == "--seconds")
        Options.Seconds = std::stod(argValue(Argc, Argv, I));
      else if (Arg == "--trace")
        Options.Trace = std::stoi(argValue(Argc, Argv, I)) != 0;
      else if (Arg == "--tiny")
        Options.Tiny = true;
      else
        usage("unknown argument '" + Arg + "'");
    } catch (const std::logic_error &) {
      usage("bad value for " + Arg);
    }
  }
  if (!(Options.Seconds > 0.0))
    usage("--seconds must be positive");

  Outcome Out;
  if (Workload == "grid")
    Out = runGrid(Options);
  else if (Workload == "fleet")
    Out = runFleet(Options);
  else if (Workload == "decide")
    Out = runDecide(Options);
  else
    usage("unknown workload '" + Workload + "'");
  Out.add("peak_rss_mb", peakRssMb(), "MiB");

  std::ostringstream Json;
  Json << "{\"workload\": " << jsonString(Workload)
       << ", \"seed\": " << Options.Seed
       << ", \"trace\": " << (Options.Trace ? 1 : 0)
       << ", \"tiny\": " << (Options.Tiny ? "true" : "false")
       << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"workers\": 1, \"build_type\": "
       << jsonString(MEDLEY_PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << jsonString(MEDLEY_PERFBENCH_COMPILER)
       << "}, \"attempted\": " << Out.Attempted
       << ", \"failed\": " << Out.Failed << ", \"digest\": \"";
  char Hex[20];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Out.Digest));
  Json << Hex << "\", \"errors\": [";
  for (size_t I = 0; I < Out.Errors.size(); ++I)
    Json << (I ? ", " : "") << jsonString(Out.Errors[I]);
  Json << "], \"metrics\": {";
  for (size_t I = 0; I < Out.Metrics.size(); ++I)
    Json << (I ? ", " : "") << jsonString(Out.Metrics[I].Name)
         << ": {\"value\": " << jsonNumber(Out.Metrics[I].Value)
         << ", \"unit\": " << jsonString(Out.Metrics[I].Unit) << "}";
  Json << "}, \"unmeasured\": {";
  for (size_t I = 0; I < Out.Unmeasured.size(); ++I)
    Json << (I ? ", " : "") << jsonString(Out.Unmeasured[I].first) << ": "
         << jsonString(Out.Unmeasured[I].second);
  Json << "}}";
  std::cout << Json.str() << std::endl;
  return Out.Failed == 0 && Out.Attempted > 0 ? 0 : 1;
}
