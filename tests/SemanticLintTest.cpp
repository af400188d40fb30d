//===-- tests/SemanticLintTest.cpp - Interprocedural lint tests ----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-phase semantic analyzer (DESIGN.md §12, §15): call-graph
/// linking and name resolution, the L7–L9 interprocedural rules and the
/// L10–L12 flow-sensitive rules on in-process snippets,
/// schedule-independence of the linked graph, the incremental cache
/// (its analyzer/rule-catalog fingerprint, per-record misses, pruning
/// and the skipped rewrite of a fully warm run), baseline-key escaping and
/// stale-entry tracking, multi-line allow coverage, and CLI runs over
/// the seeded known-bad fixture trees.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Cache.h"
#include "medley-lint/Semantic.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sys/wait.h>

using namespace medley::lint;

namespace {

FileIndex indexSrc(const std::string &Path, const std::string &Source) {
  return buildFileIndex(Path, Source, classifyPath(Path));
}

bool hasRule(const std::vector<Finding> &Findings, const std::string &Rule) {
  for (const Finding &F : Findings)
    if (F.Rule == Rule)
      return true;
  return false;
}

size_t countRule(const std::vector<Finding> &Findings,
                 const std::string &Rule) {
  size_t N = 0;
  for (const Finding &F : Findings)
    N += F.Rule == Rule;
  return N;
}

std::string messagesOf(const std::vector<Finding> &Findings) {
  std::string Out;
  for (const Finding &F : Findings)
    Out += renderText(F) + "\n";
  return Out;
}

bool hasEdge(const CallGraph &G, const std::string &FromQual,
             const std::string &ToQual) {
  auto From = G.ByQual.find(FromQual);
  auto To = G.ByQual.find(ToQual);
  if (From == G.ByQual.end() || To == G.ByQual.end())
    return false;
  const std::vector<size_t> &Succ = G.Edges[From->second];
  return std::find(Succ.begin(), Succ.end(), To->second) != Succ.end();
}

} // namespace

//===----------------------------------------------------------------------===//
// Call-graph linking and resolution
//===----------------------------------------------------------------------===//

TEST(CallGraphTest, QualifiedNamesFromNamespacesAndClasses) {
  CallGraph G = linkCallGraph({indexSrc(
      "src/policy/Features.cpp",
      "namespace medley::policy {\n"
      "double helper(double X) { return X * 2.0; }\n"
      "double buildFeatures(double X) { return helper(X); }\n"
      "}\n")});
  ASSERT_TRUE(G.ByQual.count("medley::policy::helper"));
  ASSERT_TRUE(G.ByQual.count("medley::policy::buildFeatures"));
  EXPECT_TRUE(
      hasEdge(G, "medley::policy::buildFeatures", "medley::policy::helper"));
}

TEST(CallGraphTest, MemberCallResolvesAcrossFiles) {
  CallGraph G = linkCallGraph(
      {indexSrc("src/core/Registry.cpp",
                "class Registry { public: void flush(); };\n"
                "void Registry::flush() { }\n"),
       indexSrc("src/core/Tick.cpp",
                "class Registry;\n"
                "void tick(Registry &R) { R.flush(); }\n")});
  EXPECT_TRUE(hasEdge(G, "tick", "Registry::flush"));
}

TEST(CallGraphTest, QualifiedCallMatchesSuffixOnComponentBoundary) {
  CallGraph G = linkCallGraph(
      {indexSrc("src/support/Util.cpp",
                "namespace medley::util {\n"
                "double clamp(double X) { return X; }\n"
                "}\n"),
       indexSrc("src/core/Use.cpp",
                "double shape(double X) { return util::clamp(X); }\n")});
  EXPECT_TRUE(hasEdge(G, "shape", "medley::util::clamp"));
  // "il::clamp" would NOT match: suffixes bind at '::' boundaries only.
  CallGraph G2 = linkCallGraph(
      {indexSrc("src/support/Util.cpp",
                "namespace medley::util {\n"
                "double clamp(double X) { return X; }\n"
                "}\n"),
       indexSrc("src/core/Use.cpp",
                "double shape(double X) { return il::clamp(X); }\n")});
  EXPECT_FALSE(hasEdge(G2, "shape", "medley::util::clamp"));
}

TEST(CallGraphTest, OverloadsCollapseToOneNode) {
  CallGraph G = linkCallGraph({indexSrc(
      "src/core/Blend.cpp",
      "double blend(double A) { return A; }\n"
      "double blend(double A, double B) { return A + B; }\n")});
  size_t BlendNodes = 0;
  for (const CallGraph::Node &N : G.Nodes)
    BlendNodes += N.Qual == "blend";
  EXPECT_EQ(BlendNodes, 1u);
}

//===----------------------------------------------------------------------===//
// L7 on in-process snippets: recursion, suppression
//===----------------------------------------------------------------------===//

namespace {

/// A three-file tree where the decision entry reaches an allocation
/// through a helperA <-> helperB cycle; \p AllowAtSite plants an allow
/// annotation on the allocation line.
std::vector<FileIndex> recursiveEscapeTree(bool AllowAtSite) {
  std::string Gather = "int helperA(int N);\n"
                       "int helperB(int N) {\n"
                       "  std::vector<int> V;\n";
  if (AllowAtSite)
    Gather += "  // medley-lint: allow(hotpath-escape)\n";
  Gather += "  V.push_back(N);\n"
            "  return helperA(N - 1);\n"
            "}\n";
  return {indexSrc("src/core/Choose.cpp",
                   "class FooSelector { public: int choose(int N); };\n"
                   "int helperA(int N);\n"
                   "int FooSelector::choose(int N) { return helperA(N); }\n"),
          indexSrc("src/core/Helpers.cpp",
                   "int helperB(int N);\n"
                   "int helperA(int N) { return N > 0 ? helperB(N) : 0; }\n"),
          indexSrc("src/core/Gather.cpp", Gather)};
}

} // namespace

TEST(HotpathEscapeTest, PropagatesThroughCallCyclesAndReportsOnce) {
  auto Findings = runSemanticRules(linkCallGraph(recursiveEscapeTree(false)));
  EXPECT_EQ(countRule(Findings, "hotpath-escape"), 1u)
      << messagesOf(Findings);
  for (const Finding &F : Findings)
    if (F.Rule == "hotpath-escape") {
      EXPECT_EQ(F.File, "src/core/Gather.cpp");
      EXPECT_NE(
          F.Message.find("FooSelector::choose -> helperA -> helperB"),
          std::string::npos)
          << F.Message;
    }
}

TEST(HotpathEscapeTest, AllowAtTheAllocationSiteSuppresses) {
  auto Findings = runSemanticRules(linkCallGraph(recursiveEscapeTree(true)));
  EXPECT_FALSE(hasRule(Findings, "hotpath-escape")) << messagesOf(Findings);
}

TEST(HotpathEscapeTest, SoATickKernelsAreDecisionEntries) {
  // The tick kernels must anchor L7 reachability just like the selector
  // entries: an allocation in a helper reached from
  // Simulation::recomputeTickState or from the steady pass's rate refresh
  // (Task::refreshRate and a task's activeRate) is a hot-path escape.
  std::vector<FileIndex> Tree = {
      indexSrc("src/sim/TaskRefreshRate.cpp",
               "class Task { public: double refreshRate(int V);\n"
               "  virtual double activeRate(int N) const = 0; };\n"
               "double Task::refreshRate(int V) { return activeRate(V); }\n"),
      indexSrc("src/sim/SimRecompute.cpp",
               "class Simulation { public: void recomputeTickState(int C); };\n"
               "int gatherColumns(int I);\n"
               "void Simulation::recomputeTickState(int C) {\n"
               "  gatherColumns(C);\n"
               "}\n"),
      indexSrc("src/workload/ProgActiveRate.cpp",
               "class Program { public: double activeRate(int N) const; };\n"
               "int gatherColumns(int I);\n"
               "double Program::activeRate(int N) const {\n"
               "  return gatherColumns(N);\n"
               "}\n"),
      indexSrc("src/sim/Gather.cpp",
               "int gatherColumns(int I) {\n"
               "  std::vector<int> Staging;\n"
               "  Staging.push_back(I);\n"
               "  return Staging.back();\n"
               "}\n")};
  auto Findings = runSemanticRules(linkCallGraph(Tree));
  // One allocation site, reported once regardless of how many of the new
  // entries reach it.
  EXPECT_EQ(countRule(Findings, "hotpath-escape"), 1u)
      << messagesOf(Findings);
  for (const Finding &F : Findings) {
    if (F.Rule == "hotpath-escape") {
      EXPECT_EQ(F.File, "src/sim/Gather.cpp");
    }
  }
  // Without recomputeTickState, the rate refresh alone still reaches it.
  Tree.erase(Tree.begin() + 1);
  Findings = runSemanticRules(linkCallGraph(Tree));
  EXPECT_EQ(countRule(Findings, "hotpath-escape"), 1u)
      << messagesOf(Findings);
}

TEST(HotpathEscapeTest, TestTreeDefinitionsAreOutOfScope) {
  // The same shape, but the allocating helper lives under tests/: the
  // BFS must not cross out of src/.
  auto Findings = runSemanticRules(linkCallGraph(
      {indexSrc("src/core/Choose.cpp",
                "class FooSelector { public: int choose(int N); };\n"
                "int FooSelector::choose(int N) { return helperT(N); }\n"),
       indexSrc("tests/HelperTest.cpp",
                "int helperT(int N) {\n"
                "  std::vector<int> V;\n"
                "  V.push_back(N);\n"
                "  return 0;\n"
                "}\n")}));
  EXPECT_FALSE(hasRule(Findings, "hotpath-escape")) << messagesOf(Findings);
}

//===----------------------------------------------------------------------===//
// L9 on an in-process snippet: taint through two functions
//===----------------------------------------------------------------------===//

TEST(DeterminismTaintTest, TaintCrossesTwoFunctionsIntoSeed) {
  auto Findings = runSemanticRules(linkCallGraph(
      {indexSrc("src/exp/Entropy.cpp",
                "unsigned pickEntropy() {\n"
                "  unsigned Raw = static_cast<unsigned>(rand());\n"
                "  return Raw;\n"
                "}\n"),
       indexSrc("src/exp/Seed.cpp",
                "unsigned pickEntropy();\n"
                "unsigned deriveSeed() {\n"
                "  unsigned Seed = pickEntropy();\n"
                "  return Seed;\n"
                "}\n"
                "void configure() {\n"
                "  std::mt19937 Gen(deriveSeed());\n"
                "}\n")}));
  EXPECT_EQ(countRule(Findings, "determinism-taint"), 1u)
      << messagesOf(Findings);
}

TEST(DeterminismTaintTest, SeedFromPlainParameterStaysQuiet) {
  auto Findings = runSemanticRules(linkCallGraph(
      {indexSrc("src/exp/Seed.cpp",
                "void configure(unsigned Seed) {\n"
                "  std::mt19937 Gen(Seed);\n"
                "}\n")}));
  EXPECT_FALSE(hasRule(Findings, "determinism-taint")) << messagesOf(Findings);
}

//===----------------------------------------------------------------------===//
// L10 cross-thread-write: CFG + must-lock dataflow on in-process snippets
//===----------------------------------------------------------------------===//

namespace {

/// A pool type whose parallelFor marks its lambda a thread-task body.
const char *MiniPoolDecl =
    "struct MiniPool {\n"
    "  template <typename Fn> void parallelFor(unsigned long N, Fn &&B);\n"
    "};\n";

} // namespace

TEST(CrossThreadWriteTest, UnguardedWritesOnTaskPathsFire) {
  std::string Src = std::string(MiniPoolDecl) +
                    "class Agg {\n"
                    "public:\n"
                    "  void runAll(MiniPool &Pool, unsigned long N);\n"
                    "  void bump(long K);\n"
                    "private:\n"
                    "  long Hits = 0;\n"
                    "  long Mixed = 0;\n"
                    "  long Guarded = 0;\n"
                    "  std::atomic<long> Epoch{0};\n"
                    "  std::mutex Mu;\n"
                    "};\n"
                    "void Agg::runAll(MiniPool &Pool, unsigned long N) {\n"
                    "  Pool.parallelFor(N, [this](unsigned long I) {\n"
                    "    Hits += 1;\n"
                    "    Epoch = static_cast<long>(I);\n"
                    "    {\n"
                    "      std::lock_guard<std::mutex> G(Mu);\n"
                    "      Guarded += 1;\n"
                    "    }\n"
                    "    bump(static_cast<long>(I));\n"
                    "  });\n"
                    "}\n"
                    "void Agg::bump(long K) { Mixed += K; }\n";
  auto Findings =
      runSemanticRules(linkCallGraph({indexSrc("src/core/Agg.cpp", Src)}));
  std::string Msgs = messagesOf(Findings);
  // `Hits` directly in the body; `Mixed` via the call — both lock-free.
  // The atomic `Epoch` and the guarded `Guarded` stay quiet, and the
  // guard released at the brace-scope end must NOT leak onto the
  // bump() call after it.
  EXPECT_EQ(countRule(Findings, "cross-thread-write"), 2u) << Msgs;
  EXPECT_NE(Msgs.find("'Hits'"), std::string::npos) << Msgs;
  EXPECT_NE(Msgs.find("'Mixed'"), std::string::npos) << Msgs;
  EXPECT_EQ(Msgs.find("'Guarded'"), std::string::npos) << Msgs;
  EXPECT_EQ(Msgs.find("'Epoch'"), std::string::npos) << Msgs;
}

TEST(CrossThreadWriteTest, ManualLockUnlockIsFlowSensitive) {
  std::string Src = std::string(MiniPoolDecl) +
                    "class Agg {\n"
                    "public:\n"
                    "  void runAll(MiniPool &Pool, unsigned long N);\n"
                    "private:\n"
                    "  long A = 0;\n"
                    "  long B = 0;\n"
                    "  std::mutex Mu;\n"
                    "};\n"
                    "void Agg::runAll(MiniPool &Pool, unsigned long N) {\n"
                    "  Pool.parallelFor(N, [this](unsigned long I) {\n"
                    "    Mu.lock();\n"
                    "    A += 1;\n"
                    "    Mu.unlock();\n"
                    "    B += 1;\n"
                    "  });\n"
                    "}\n";
  auto Findings =
      runSemanticRules(linkCallGraph({indexSrc("src/core/Agg.cpp", Src)}));
  std::string Msgs = messagesOf(Findings);
  EXPECT_EQ(countRule(Findings, "cross-thread-write"), 1u) << Msgs;
  EXPECT_NE(Msgs.find("'B'"), std::string::npos) << Msgs;
}

TEST(CrossThreadWriteTest, WritesOutsideTaskBodiesStayQuiet) {
  // The same unguarded writes, but nothing ever spawns a task: the rule
  // anchors on thread-task bodies, not on writes per se.
  std::string Src = "class Agg {\n"
                    "public:\n"
                    "  void tick();\n"
                    "  void bump(long K);\n"
                    "private:\n"
                    "  long Hits = 0;\n"
                    "  long Mixed = 0;\n"
                    "};\n"
                    "void Agg::tick() {\n"
                    "  Hits += 1;\n"
                    "  bump(2);\n"
                    "}\n"
                    "void Agg::bump(long K) { Mixed += K; }\n";
  auto Findings =
      runSemanticRules(linkCallGraph({indexSrc("src/core/Agg.cpp", Src)}));
  EXPECT_FALSE(hasRule(Findings, "cross-thread-write"))
      << messagesOf(Findings);
}

TEST(CrossThreadWriteTest, TaskLocalReceiverStaysQuiet) {
  // Calls on objects local to the task body are task-private state; the
  // BFS must not traverse into them.
  std::string Src = std::string(MiniPoolDecl) +
                    "class Agg {\n"
                    "public:\n"
                    "  void runAll(MiniPool &Pool, unsigned long N);\n"
                    "  void bump(long K);\n"
                    "private:\n"
                    "  long Mixed = 0;\n"
                    "};\n"
                    "void Agg::runAll(MiniPool &Pool, unsigned long N) {\n"
                    "  Pool.parallelFor(N, [](unsigned long I) {\n"
                    "    Agg Local;\n"
                    "    Local.bump(static_cast<long>(I));\n"
                    "  });\n"
                    "}\n"
                    "void Agg::bump(long K) { Mixed += K; }\n";
  auto Findings =
      runSemanticRules(linkCallGraph({indexSrc("src/core/Agg.cpp", Src)}));
  EXPECT_FALSE(hasRule(Findings, "cross-thread-write"))
      << messagesOf(Findings);
}

TEST(CrossThreadWriteTest, FleetStepShardIsANamedThreadTaskRoot) {
  // No spawn lambda anywhere in this snippet: the root comes purely from
  // the FleetEngine::stepShard name anchor (the real engine drives it
  // from ThreadPool workers, one shard range each). The identically
  // shaped method on another class is the control and must stay quiet.
  std::string Src = "class FleetEngine {\n"
                    "public:\n"
                    "  void stepShard(unsigned long Shard, unsigned long N);\n"
                    "private:\n"
                    "  long TotalTicks = 0;\n"
                    "  std::atomic<long> Alive{0};\n"
                    "};\n"
                    "void FleetEngine::stepShard(unsigned long Shard,\n"
                    "                            unsigned long N) {\n"
                    "  TotalTicks += static_cast<long>(N);\n"
                    "  Alive = static_cast<long>(Shard);\n"
                    "}\n"
                    "class OtherEngine {\n"
                    "public:\n"
                    "  void stepShard(unsigned long Shard, unsigned long N);\n"
                    "private:\n"
                    "  long Quiet = 0;\n"
                    "};\n"
                    "void OtherEngine::stepShard(unsigned long Shard,\n"
                    "                            unsigned long N) {\n"
                    "  Quiet += static_cast<long>(N);\n"
                    "}\n";
  auto Findings = runSemanticRules(
      linkCallGraph({indexSrc("src/sim/FleetEngine.cpp", Src)}));
  std::string Msgs = messagesOf(Findings);
  EXPECT_EQ(countRule(Findings, "cross-thread-write"), 1u) << Msgs;
  EXPECT_NE(Msgs.find("'TotalTicks'"), std::string::npos) << Msgs;
  EXPECT_EQ(Msgs.find("'Alive'"), std::string::npos) << Msgs;
  EXPECT_EQ(Msgs.find("'Quiet'"), std::string::npos) << Msgs;
}

TEST(HotpathEscapeTest, FleetStepShardIsADecisionEntry) {
  // stepShard wraps Simulation::step on the steady tick path, so an
  // allocation reachable from it must trip L7 exactly like one under a
  // selector entry.
  std::string Src = "class FleetEngine {\n"
                    "public:\n"
                    "  void stepShard(unsigned long Shard, unsigned long N);\n"
                    "private:\n"
                    "  std::vector<long> TickLog;\n"
                    "};\n"
                    "void FleetEngine::stepShard(unsigned long Shard,\n"
                    "                            unsigned long N) {\n"
                    "  TickLog.push_back(static_cast<long>(N));\n"
                    "}\n";
  auto Findings = runSemanticRules(
      linkCallGraph({indexSrc("src/sim/FleetEngine.cpp", Src)}));
  std::string Msgs = messagesOf(Findings);
  EXPECT_TRUE(hasRule(Findings, "hotpath-escape")) << Msgs;
  EXPECT_NE(Msgs.find("FleetEngine::stepShard"), std::string::npos) << Msgs;
}

TEST(HotpathEscapeTest, SelectorGateIsADecisionEntry) {
  // gate() is the one selector call a mixture decision makes, so an
  // allocation reachable from it is a hot-path escape like one under
  // select or update.
  std::string Src = "class FooSelector {\n"
                    "public:\n"
                    "  int gate(int N);\n"
                    "private:\n"
                    "  std::vector<int> History;\n"
                    "};\n"
                    "int FooSelector::gate(int N) {\n"
                    "  History.push_back(N);\n"
                    "  return N;\n"
                    "}\n";
  auto Findings = runSemanticRules(
      linkCallGraph({indexSrc("src/core/FooSelector.cpp", Src)}));
  std::string Msgs = messagesOf(Findings);
  EXPECT_EQ(countRule(Findings, "hotpath-escape"), 1u) << Msgs;
  EXPECT_NE(Msgs.find("FooSelector::gate"), std::string::npos) << Msgs;
}

//===----------------------------------------------------------------------===//
// L12 arena-escape: origin + liveness dataflow on in-process snippets
//===----------------------------------------------------------------------===//

namespace {

const char *ArenaDecl = "namespace support {\n"
                        "class Arena {\n"
                        "public:\n"
                        "  template <typename T> T *allocateArray(unsigned "
                        "long N);\n"
                        "  void reset();\n"
                        "};\n"
                        "} // namespace support\n";

} // namespace

TEST(ArenaEscapeTest, StoreReturnAndUseAfterResetFire) {
  std::string Src =
      std::string(ArenaDecl) +
      "class Ticker {\n"
      "public:\n"
      "  void tickStore(unsigned long N);\n"
      "  float *tickLeak(unsigned long N);\n"
      "  void tickBranch(unsigned long N, bool Flush);\n"
      "private:\n"
      "  support::Arena TickArena;\n"
      "  float *Stale = nullptr;\n"
      "};\n"
      "void Ticker::tickStore(unsigned long N) {\n"
      "  float *Buf = TickArena.allocateArray<float>(N);\n"
      "  Stale = Buf;\n"
      "}\n"
      "float *Ticker::tickLeak(unsigned long N) {\n"
      "  float *Buf = TickArena.allocateArray<float>(N);\n"
      "  return Buf;\n"
      "}\n"
      "void Ticker::tickBranch(unsigned long N, bool Flush) {\n"
      "  float *Buf = TickArena.allocateArray<float>(N);\n"
      "  Buf[0] = 1.0f;\n"
      "  if (Flush)\n"
      "    TickArena.reset();\n"
      "  Buf[0] = 2.0f;\n"
      "}\n";
  auto Findings =
      runSemanticRules(linkCallGraph({indexSrc("src/core/Ticker.cpp", Src)}));
  std::string Msgs = messagesOf(Findings);
  EXPECT_EQ(countRule(Findings, "arena-escape"), 3u) << Msgs;
  EXPECT_NE(Msgs.find("stored into a field/global"), std::string::npos)
      << Msgs;
  EXPECT_NE(Msgs.find("returned to the caller"), std::string::npos) << Msgs;
  EXPECT_NE(Msgs.find("used after"), std::string::npos) << Msgs;
}

TEST(ArenaEscapeTest, ResetAfterLastUseStaysQuiet) {
  std::string Src = std::string(ArenaDecl) +
                    "class Ticker {\n"
                    "public:\n"
                    "  void tickClean(unsigned long N);\n"
                    "private:\n"
                    "  support::Arena TickArena;\n"
                    "};\n"
                    "void Ticker::tickClean(unsigned long N) {\n"
                    "  float *Buf = TickArena.allocateArray<float>(N);\n"
                    "  for (unsigned long I = 0; I < N; ++I)\n"
                    "    Buf[I] = 0.0f;\n"
                    "  TickArena.reset();\n"
                    "}\n";
  auto Findings =
      runSemanticRules(linkCallGraph({indexSrc("src/core/Ticker.cpp", Src)}));
  EXPECT_FALSE(hasRule(Findings, "arena-escape")) << messagesOf(Findings);
}

TEST(ArenaEscapeTest, ResetOnLoopBackEdgeFlagsNextIterationUse) {
  // The reset flows around the loop back edge: the use at the top of
  // the next iteration reads freed storage even though the reset is
  // textually after it.
  std::string Src = std::string(ArenaDecl) +
                    "class Ticker {\n"
                    "public:\n"
                    "  void spin(unsigned long N);\n"
                    "private:\n"
                    "  support::Arena TickArena;\n"
                    "};\n"
                    "void Ticker::spin(unsigned long N) {\n"
                    "  float *Buf = TickArena.allocateArray<float>(N);\n"
                    "  for (unsigned long I = 0; I < N; ++I) {\n"
                    "    Buf[0] = 1.0f;\n"
                    "    TickArena.reset();\n"
                    "  }\n"
                    "}\n";
  auto Findings =
      runSemanticRules(linkCallGraph({indexSrc("src/core/Ticker.cpp", Src)}));
  EXPECT_EQ(countRule(Findings, "arena-escape"), 1u) << messagesOf(Findings);
}

//===----------------------------------------------------------------------===//
// Schedule independence
//===----------------------------------------------------------------------===//

TEST(AnalyzeTest, GraphAndFindingsIdenticalAcrossJobCounts) {
  std::vector<SourceFile> Files;
  // A dozen files with enough cross-references that an order-dependent
  // merge would show.
  for (int I = 0; I < 12; ++I) {
    std::string N = std::to_string(I);
    std::string Next = std::to_string((I + 1) % 12);
    Files.push_back({"src/core/F" + N + ".cpp",
                     "int chain" + Next + "(int X);\n"
                     "int chain" + N + "(int X) {\n"
                     "  std::vector<int> V;\n"
                     "  V.push_back(X);\n"
                     "  return chain" + Next + "(X - 1);\n"
                     "}\n"});
  }
  Files.push_back({"src/core/Entry.cpp",
                   "class ChainSelector { public: int select(int N); };\n"
                   "int chain0(int X);\n"
                   "int ChainSelector::select(int N) { return chain0(N); }\n"});

  AnalyzeOptions One;
  One.Jobs = 1;
  AnalyzeOptions Four;
  Four.Jobs = 4;
  AnalyzeResult A = analyzeSources(Files, One);
  AnalyzeResult B = analyzeSources(Files, Four);

  EXPECT_EQ(renderGraphJson(A.Graph), renderGraphJson(B.Graph));
  ASSERT_EQ(A.Findings.size(), B.Findings.size());
  for (size_t I = 0; I < A.Findings.size(); ++I)
    EXPECT_EQ(renderText(A.Findings[I]), renderText(B.Findings[I]));
  EXPECT_EQ(countRule(A.Findings, "hotpath-escape"), 12u)
      << messagesOf(A.Findings);
}

//===----------------------------------------------------------------------===//
// Baseline-key escaping
//===----------------------------------------------------------------------===//

TEST(BaselineEscapeTest, KeyWithPipesAndBackslashesRoundTrips) {
  Finding F;
  F.File = "src/odd|name.cpp";
  F.Rule = "float-equality";
  F.SourceLine = "bool B = (A || C) && Mask == 1.0; // \\ and | here";
  std::string Key = renderBaselineKey(F);

  std::string File, Rule, SourceLine;
  ASSERT_TRUE(parseBaselineKey(Key, File, Rule, SourceLine)) << Key;
  EXPECT_EQ(File, F.File);
  EXPECT_EQ(Rule, F.Rule);
  EXPECT_EQ(SourceLine, F.SourceLine);
}

TEST(BaselineEscapeTest, MalformedKeysAreRejected) {
  std::string File, Rule, SourceLine;
  EXPECT_FALSE(parseBaselineKey("only|two", File, Rule, SourceLine));
  EXPECT_FALSE(parseBaselineKey("a|b|c|d", File, Rule, SourceLine));
  EXPECT_FALSE(parseBaselineKey("a|b|trailing\\", File, Rule, SourceLine));
}

TEST(BaselineEscapeTest, BaselineSuppressesFindingOnPipeBearingLine) {
  std::string Source =
      "bool f(double X, bool A, bool C) { return (A || C) && X == 1.0; }\n";
  auto Findings = lintSource("src/core/Fixture.cpp", Source, FileKind::Src);
  ASSERT_EQ(countRule(Findings, "float-equality"), 1u)
      << messagesOf(Findings);
  auto Lines = renderBaseline(Findings);
  EXPECT_TRUE(applyBaseline(Findings, Lines).empty());
}

//===----------------------------------------------------------------------===//
// Baseline bookkeeping: used vs stale entries
//===----------------------------------------------------------------------===//

TEST(BaselineDetailedTest, TracksUsedAndStaleLines) {
  std::string Source = "bool f(double X) { return X == 1.0; }\n"
                       "bool g(double Y) { return Y == 2.0; }\n";
  auto Findings = lintSource("src/core/Fixture.cpp", Source, FileKind::Src);
  ASSERT_EQ(countRule(Findings, "float-equality"), 2u)
      << messagesOf(Findings);
  auto Keys = renderBaseline(Findings);
  ASSERT_EQ(Keys.size(), 2u);

  std::vector<std::string> Lines = {
      "# a comment line", Keys[0], "src/gone.cpp|float-equality|Z == 3.0",
      "", Keys[1]};
  BaselineResult BR = applyBaselineDetailed(Findings, Lines);
  // Both real findings suppressed; the fabricated entry is stale; the
  // comment and the blank line belong to neither list.
  EXPECT_TRUE(BR.Kept.empty()) << messagesOf(BR.Kept);
  EXPECT_EQ(BR.UsedLines, (std::vector<size_t>{1, 4}));
  EXPECT_EQ(BR.StaleLines, (std::vector<size_t>{2}));
}

TEST(BaselineDetailedTest, DuplicateKeysConsumeOnePerFinding) {
  std::string Source = "bool f(double X) { return X == 1.0; }\n";
  auto Findings = lintSource("src/core/Fixture.cpp", Source, FileKind::Src);
  ASSERT_EQ(Findings.size(), 1u);
  auto Keys = renderBaseline(Findings);
  ASSERT_EQ(Keys.size(), 1u);
  // The same key twice: one copy suppresses the finding, the other is
  // stale — the burn-down gate must notice the redundant line.
  std::vector<std::string> Lines = {Keys[0], Keys[0]};
  BaselineResult BR = applyBaselineDetailed(Findings, Lines);
  EXPECT_TRUE(BR.Kept.empty());
  EXPECT_EQ(BR.UsedLines, (std::vector<size_t>{0}));
  EXPECT_EQ(BR.StaleLines, (std::vector<size_t>{1}));
}

//===----------------------------------------------------------------------===//
// Cache fingerprint: analyzer/rule bumps invalidate warm entries
//===----------------------------------------------------------------------===//

TEST(CacheFingerprintTest, SaltChangesTheFingerprint) {
  EXPECT_EQ(cacheFingerprint(""), cacheFingerprint(""));
  EXPECT_NE(cacheFingerprint(""), cacheFingerprint("rule-bump"));
}

TEST(CacheFingerprintTest, FingerprintBumpInvalidatesWarmEntries) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "medley_fp_cache";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  std::vector<SourceFile> Files;
  for (int I = 0; I < 3; ++I) {
    std::string N = std::to_string(I);
    Files.push_back({"src/core/F" + N + ".cpp",
                     "bool eq" + N + "(double X) { return X == 1.0; }\n"});
  }
  AnalyzeOptions Opts;
  Opts.CachePath = (Dir / "cache.txt").string();

  AnalyzeResult Cold = analyzeSources(Files, Opts);
  EXPECT_EQ(Cold.CacheHits, 0u);
  AnalyzeResult Warm = analyzeSources(Files, Opts);
  EXPECT_EQ(Warm.CacheHits, Files.size());

  // A simulated rule-catalog bump: every warm entry must be discarded
  // even though no source byte changed, and the findings must come out
  // identical to the cold run.
  Opts.FingerprintSalt = "rule-bump";
  AnalyzeResult Bumped = analyzeSources(Files, Opts);
  EXPECT_EQ(Bumped.CacheHits, 0u);
  ASSERT_EQ(Bumped.Findings.size(), Cold.Findings.size());
  for (size_t I = 0; I < Cold.Findings.size(); ++I)
    EXPECT_EQ(renderText(Bumped.Findings[I]), renderText(Cold.Findings[I]));

  // And the bumped fingerprint is itself cached: the next run is warm.
  AnalyzeResult Rewarm = analyzeSources(Files, Opts);
  EXPECT_EQ(Rewarm.CacheHits, Files.size());

  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Cache records: per-record misses, pruning, no identical rewrite
//===----------------------------------------------------------------------===//

namespace {

std::filesystem::path freshDir(const std::string &Name) {
  std::filesystem::path Dir = std::filesystem::path(::testing::TempDir()) / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Three files, each with one function and one token finding.
std::vector<SourceFile> threeCachedFiles() {
  std::vector<SourceFile> Files;
  for (int I = 0; I < 3; ++I) {
    std::string N = std::to_string(I);
    Files.push_back({"src/core/F" + N + ".cpp",
                     "bool eq" + N + "(double X) { return X == 1.0; }\n"});
  }
  return Files;
}

std::vector<std::string> readLines(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  return Lines;
}

void writeLines(const std::filesystem::path &P,
                const std::vector<std::string> &Lines) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  for (const std::string &Line : Lines)
    Out << Line << "\n";
}

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> Fields(1);
  for (char C : Line) {
    if (C == '\t')
      Fields.emplace_back();
    else
      Fields.back() += C;
  }
  return Fields;
}

std::string joinTabs(const std::vector<std::string> &Fields) {
  std::string Out;
  for (size_t I = 0; I < Fields.size(); ++I)
    Out += (I ? "\t" : "") + Fields[I];
  return Out;
}

/// Index of the `F` line of \p File's record.
size_t recordStart(const std::vector<std::string> &Lines,
                   const std::string &File) {
  for (size_t I = 0; I < Lines.size(); ++I)
    if (Lines[I].rfind("F\t" + File + "\t", 0) == 0)
      return I;
  ADD_FAILURE() << "no record for " << File;
  return Lines.size();
}

/// Index of the first line of \p File's record that begins with \p Tag.
size_t recordLine(const std::vector<std::string> &Lines,
                  const std::string &File, const std::string &Tag) {
  for (size_t I = recordStart(Lines, File) + 1;
       I < Lines.size() && Lines[I].rfind("F\t", 0) != 0; ++I)
    if (Lines[I].rfind(Tag + "\t", 0) == 0)
      return I;
  ADD_FAILURE() << "no " << Tag << " line in the record for " << File;
  return 0;
}

} // namespace

TEST(CacheRecordTest, CorruptRecordDegradesOnlyItsOwnFile) {
  std::filesystem::path Dir = freshDir("medley_cache_corrupt_record");
  std::filesystem::path Cache = Dir / "cache.txt";
  std::vector<SourceFile> Files = threeCachedFiles();
  const std::string Victim = Files[1].Path;

  const std::string Expected =
      messagesOf(analyzeSources(Files, AnalyzeOptions()).Findings);
  ASSERT_FALSE(Expected.empty());
  AnalyzeOptions Opts;
  Opts.CachePath = Cache.string();
  ASSERT_EQ(analyzeSources(Files, Opts).CacheHits, 0u);
  ASSERT_EQ(analyzeSources(Files, Opts).CacheHits, Files.size());
  const std::vector<std::string> Warm = readLines(Cache);

  // Each corruption touches the victim's record body only: that one file
  // is analysed again, the others still hit, the report equals a
  // cache-less run's, and the rewrite restores the warm cache.
  std::vector<std::pair<std::string, std::vector<std::string>>> Corrupt;
  {
    // An `N` line that promises one more call site than the record holds.
    std::vector<std::string> Lines = Warm;
    size_t N = recordLine(Lines, Victim, "N");
    std::vector<std::string> F = splitTabs(Lines[N]);
    ASSERT_EQ(F.size(), 20u);
    F[8] = std::to_string(std::stoul(F[8]) + 1);
    Lines[N] = joinTabs(F);
    Corrupt.emplace_back("call count", Lines);
  }
  {
    // A token finding whose line number is not a number.
    std::vector<std::string> Lines = Warm;
    size_t G = recordLine(Lines, Victim, "g");
    std::vector<std::string> F = splitTabs(Lines[G]);
    F[2] = "one";
    Lines[G] = joinTabs(F);
    Corrupt.emplace_back("finding line", Lines);
  }
  {
    // A well-formed index whose path names another file.
    std::vector<std::string> Lines = Warm;
    size_t I = recordLine(Lines, Victim, "I");
    std::vector<std::string> F = splitTabs(Lines[I]);
    F[1] = "src/core/Other.cpp";
    Lines[I] = joinTabs(F);
    Corrupt.emplace_back("index path", Lines);
  }
  {
    // A stray line between the record's end and the next record.
    std::vector<std::string> Lines = Warm;
    size_t Next = recordStart(Lines, Files[2].Path);
    Lines.insert(Lines.begin() + static_cast<std::ptrdiff_t>(Next),
                 "q\tstray\t1");
    Corrupt.emplace_back("trailing line", Lines);
  }
  for (const auto &[What, Lines] : Corrupt) {
    SCOPED_TRACE(What);
    writeLines(Cache, Lines);
    AnalyzeResult Degraded = analyzeSources(Files, Opts);
    EXPECT_EQ(Degraded.CacheHits, Files.size() - 1);
    EXPECT_EQ(messagesOf(Degraded.Findings), Expected);
    EXPECT_EQ(readLines(Cache), Warm);
    EXPECT_EQ(analyzeSources(Files, Opts).CacheHits, Files.size());
  }

  // A corrupt header or `F` line still empties the whole cache.
  std::vector<std::string> BadHeader = Warm;
  BadHeader[0] = "medley-lint-cache";
  std::vector<std::string> BadF = Warm;
  size_t FLine = recordStart(BadF, Victim);
  std::vector<std::string> F = splitTabs(BadF[FLine]);
  F[2] = "not-a-hash";
  BadF[FLine] = joinTabs(F);
  for (const std::vector<std::string> &Lines : {BadHeader, BadF}) {
    writeLines(Cache, Lines);
    AnalyzeResult Cold = analyzeSources(Files, Opts);
    EXPECT_EQ(Cold.CacheHits, 0u);
    EXPECT_EQ(messagesOf(Cold.Findings), Expected);
    EXPECT_EQ(readLines(Cache), Warm);
  }

  std::filesystem::remove_all(Dir);
}

TEST(CacheRecordTest, RunOverFewerFilesPrunesTheCache) {
  std::filesystem::path Dir = freshDir("medley_cache_prune");
  std::filesystem::path Cache = Dir / "cache.txt";
  std::vector<SourceFile> Files = threeCachedFiles();
  AnalyzeOptions Opts;
  Opts.CachePath = Cache.string();
  ASSERT_EQ(analyzeSources(Files, Opts).CacheHits, 0u);

  // A fully warm run leaves the cache file untouched: backdate it and
  // check that the run did not write it again.
  std::filesystem::last_write_time(
      Cache, std::filesystem::last_write_time(Cache) - std::chrono::hours(1));
  const auto Backdated = std::filesystem::last_write_time(Cache);
  EXPECT_EQ(analyzeSources(Files, Opts).CacheHits, Files.size());
  EXPECT_EQ(std::filesystem::last_write_time(Cache), Backdated);

  // Dropping a file rewrites the cache without its entry...
  std::vector<SourceFile> Two = {Files[0], Files[2]};
  EXPECT_EQ(analyzeSources(Two, Opts).CacheHits, 2u);
  // ...so bringing it back is a miss for that file alone.
  EXPECT_EQ(analyzeSources(Files, Opts).CacheHits, 2u);
  EXPECT_EQ(analyzeSources(Files, Opts).CacheHits, Files.size());

  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Multi-line allow coverage
//===----------------------------------------------------------------------===//

TEST(AllowCoverageTest, AnnotationAboveCoversWholeStatement) {
  auto Findings = lintSource("src/core/Fixture.cpp",
                             "bool f(double X, double Y) {\n"
                             "  // medley-lint: allow(float-equality)\n"
                             "  bool B = pick(X,\n"
                             "                Y,\n"
                             "                X == 1.0);\n"
                             "  return B;\n"
                             "}\n",
                             FileKind::Src);
  EXPECT_FALSE(hasRule(Findings, "float-equality")) << messagesOf(Findings);
}

TEST(AllowCoverageTest, AnnotationOnFirstStatementLineCoversTheRest) {
  auto Findings =
      lintSource("src/core/Fixture.cpp",
                 "bool f(double X, double Y) {\n"
                 "  bool B = pick(X, // medley-lint: allow(float-equality)\n"
                 "                Y,\n"
                 "                X == 1.0);\n"
                 "  return B;\n"
                 "}\n",
                 FileKind::Src);
  EXPECT_FALSE(hasRule(Findings, "float-equality")) << messagesOf(Findings);
}

TEST(AllowCoverageTest, WithoutAnnotationTheSameStatementFires) {
  auto Findings = lintSource("src/core/Fixture.cpp",
                             "bool f(double X, double Y) {\n"
                             "  bool B = pick(X,\n"
                             "                Y,\n"
                             "                X == 1.0);\n"
                             "  return B;\n"
                             "}\n",
                             FileKind::Src);
  EXPECT_TRUE(hasRule(Findings, "float-equality"));
}

TEST(AllowCoverageTest, CoverageEndsAtTheStatementSemicolon) {
  auto Findings = lintSource("src/core/Fixture.cpp",
                             "bool f(double X, double Y) {\n"
                             "  // medley-lint: allow(float-equality)\n"
                             "  bool B = pick(X,\n"
                             "                Y);\n"
                             "  bool C = (X == 1.0);\n"
                             "  return B && C;\n"
                             "}\n",
                             FileKind::Src);
  EXPECT_TRUE(hasRule(Findings, "float-equality")) << messagesOf(Findings);
}

//===----------------------------------------------------------------------===//
// CLI: fixture trees, --graph-json determinism, the cache
//===----------------------------------------------------------------------===//

#if defined(MEDLEY_LINT_BIN) && defined(MEDLEY_LINT_FIXTURE_DIR)

namespace {

int runLint(const std::string &Args) {
  std::string Cmd = std::string(MEDLEY_LINT_BIN) + " " + Args +
                    " > /dev/null 2> /dev/null";
  int Status = std::system(Cmd.c_str());
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

std::string slurp(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

std::string fixture(const std::string &Rule) {
  return std::string(MEDLEY_LINT_FIXTURE_DIR) + "/" + Rule;
}

/// Per-test scratch dir (ctest -j runs each case in its own process, so
/// per-test naming keeps parallel runs apart).
class SemanticCliTest : public ::testing::Test {
protected:
  void SetUp() override {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = std::filesystem::path(::testing::TempDir()) /
          (std::string("medley_semantic_cli_") + Info->name());
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  std::string path(const std::string &Rel) const {
    return (Dir / Rel).string();
  }

  std::filesystem::path Dir;
};

} // namespace

TEST_F(SemanticCliTest, HotpathEscapeFixtureFires) {
  std::string Json = path("report.json");
  EXPECT_EQ(runLint("--root " + fixture("hotpath-escape") + " --json " + Json +
                    " " + fixture("hotpath-escape") + "/src"),
            1);
  std::string Report = slurp(Json);
  EXPECT_NE(Report.find("hotpath-escape"), std::string::npos) << Report;
  EXPECT_NE(
      Report.find("RouteSelector::choose -> planRoute -> gatherCandidates"),
      std::string::npos)
      << Report;
}

TEST_F(SemanticCliTest, LockOrderFixtureFiresForCycleAndBlockingCall) {
  std::string Json = path("report.json");
  EXPECT_EQ(runLint("--root " + fixture("lock-order") + " --json " + Json +
                    " " + fixture("lock-order") + "/src"),
            1);
  std::string Report = slurp(Json);
  EXPECT_NE(Report.find("lock-order cycle"), std::string::npos) << Report;
  EXPECT_NE(Report.find("held across blocking call"), std::string::npos)
      << Report;
}

TEST_F(SemanticCliTest, DeterminismTaintFixtureFires) {
  std::string Json = path("report.json");
  EXPECT_EQ(runLint("--root " + fixture("determinism-taint") + " --json " +
                    Json + " " + fixture("determinism-taint") + "/src"),
            1);
  std::string Report = slurp(Json);
  EXPECT_NE(Report.find("determinism-taint"), std::string::npos) << Report;
  EXPECT_NE(Report.find("deriveSeed"), std::string::npos) << Report;
}

TEST_F(SemanticCliTest, NoSemanticFlagDisablesInterproceduralRules) {
  std::string Json = path("report.json");
  EXPECT_EQ(runLint("--no-semantic --root " + fixture("hotpath-escape") +
                    " --json " + Json + " " + fixture("hotpath-escape") +
                    "/src"),
            0);
}

TEST_F(SemanticCliTest, GraphJsonIsByteIdenticalAcrossJobs) {
  std::string G1 = path("graph1.json"), G4 = path("graph4.json");
  EXPECT_EQ(runLint("--jobs 1 --root " + fixture("hotpath-escape") +
                    " --graph-json " + G1 + " " + fixture("hotpath-escape") +
                    "/src"),
            1);
  EXPECT_EQ(runLint("--jobs 4 --root " + fixture("hotpath-escape") +
                    " --graph-json " + G4 + " " + fixture("hotpath-escape") +
                    "/src"),
            1);
  std::string A = slurp(G1), B = slurp(G4);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B);
  EXPECT_NE(A.find("\"RouteSelector::choose\""), std::string::npos) << A;
}

TEST_F(SemanticCliTest, SarifReportCarriesRuleAndLocation) {
  std::string Sarif = path("report.sarif");
  EXPECT_EQ(runLint("--root " + fixture("hotpath-escape") + " --sarif " +
                    Sarif + " " + fixture("hotpath-escape") + "/src"),
            1);
  std::string Report = slurp(Sarif);
  EXPECT_NE(Report.find("\"version\": \"2.1.0\""), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("\"hotpath-escape\""), std::string::npos) << Report;
  EXPECT_NE(Report.find("src/Gather.cpp"), std::string::npos) << Report;
}

TEST_F(SemanticCliTest, WarmCacheRunIsByteIdenticalAndInvalidatesOnEdit) {
  // Work on a private copy: the invalidation step edits a file.
  std::filesystem::copy(fixture("hotpath-escape"), Dir / "tree",
                        std::filesystem::copy_options::recursive);
  std::string Tree = path("tree");
  std::string Cache = path("cache.txt");
  std::string R1 = path("r1.json"), R2 = path("r2.json");

  EXPECT_EQ(runLint("--cache " + Cache + " --root " + Tree + " --json " + R1 +
                    " " + Tree + "/src"),
            1);
  ASSERT_FALSE(slurp(Cache).empty());
  EXPECT_EQ(runLint("--cache " + Cache + " --root " + Tree + " --json " + R2 +
                    " " + Tree + "/src"),
            1);
  EXPECT_EQ(slurp(R1), slurp(R2));

  // Break the call chain: the cached entry for the edited file must be
  // discarded and the escape disappears with it.
  std::ofstream Out(Dir / "tree" / "src" / "Plan.cpp", std::ios::trunc);
  Out << "std::vector<int> planRoute(int Budget) { return {}; }\n";
  Out.close();
  EXPECT_EQ(runLint("--cache " + Cache + " --root " + Tree + " --json " + R1 +
                    " " + Tree + "/src"),
            0);
}

TEST_F(SemanticCliTest, CrossThreadWriteFixtureFires) {
  std::string Json = path("report.json");
  EXPECT_EQ(runLint("--root " + fixture("cross-thread-write") + " --json " +
                    Json + " " + fixture("cross-thread-write") + "/src"),
            1);
  std::string Report = slurp(Json);
  EXPECT_NE(Report.find("cross-thread-write"), std::string::npos) << Report;
  // Direct in the task body, via a same-TU call, and via the cross-TU
  // out-of-line definition in Worker.cpp.
  EXPECT_NE(Report.find("'Hits'"), std::string::npos) << Report;
  EXPECT_NE(Report.find("'Mixed'"), std::string::npos) << Report;
  EXPECT_NE(Report.find("'Sum'"), std::string::npos) << Report;
  EXPECT_NE(Report.find("Aggregator::bump"), std::string::npos) << Report;
  // The guarded, atomic, and task-local legs stay quiet.
  EXPECT_EQ(Report.find("'Guarded'"), std::string::npos) << Report;
  EXPECT_EQ(Report.find("'Epoch'"), std::string::npos) << Report;
  EXPECT_EQ(Report.find("'Notes'"), std::string::npos) << Report;
}

TEST_F(SemanticCliTest, FleetShardFixtureFires) {
  std::string Json = path("report.json");
  EXPECT_EQ(runLint("--root " + fixture("fleet-shard") + " --json " + Json +
                    " " + fixture("fleet-shard") + "/src"),
            1);
  std::string Report = slurp(Json);
  // L10 via the named FleetEngine::stepShard root (no spawn lambda in the
  // tree): the shared aggregate directly in stepShard plus the cross-TU
  // leg through recordDecisions().
  EXPECT_NE(Report.find("cross-thread-write"), std::string::npos) << Report;
  EXPECT_NE(Report.find("'TotalTicks'"), std::string::npos) << Report;
  EXPECT_NE(Report.find("'TotalDecisions'"), std::string::npos) << Report;
  EXPECT_NE(Report.find("FleetEngine::recordDecisions"), std::string::npos)
      << Report;
  // L7 via the FleetEngine::stepShard decision entry.
  EXPECT_NE(Report.find("hotpath-escape"), std::string::npos) << Report;
  EXPECT_NE(Report.find("FleetEngine::stepShard"), std::string::npos)
      << Report;
  // The atomic, guarded, and task-local legs stay quiet.
  EXPECT_EQ(Report.find("'Alive'"), std::string::npos) << Report;
  EXPECT_EQ(Report.find("'GuardedTotal'"), std::string::npos) << Report;
  EXPECT_EQ(Report.find("'LocalTicks'"), std::string::npos) << Report;
}

TEST_F(SemanticCliTest, ArenaEscapeFixtureFires) {
  std::string Json = path("report.json");
  EXPECT_EQ(runLint("--root " + fixture("arena-escape") + " --json " + Json +
                    " " + fixture("arena-escape") + "/src"),
            1);
  std::string Report = slurp(Json);
  EXPECT_NE(Report.find("arena-escape"), std::string::npos) << Report;
  EXPECT_NE(Report.find("stored into a field/global"), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("returned to the caller"), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("used after"), std::string::npos) << Report;
  // The cross-TU leg: flush() resets TickArena over in Flush.cpp.
  EXPECT_NE(Report.find("still live across 'flush'"), std::string::npos)
      << Report;
}

TEST_F(SemanticCliTest, SarifCarriesCatalogRuleIndexAndFingerprints) {
  // Every report embeds the full rule catalog plus per-result ruleIndex
  // and stable partialFingerprints — over all the seeded fixture trees
  // (L7–L10, L12).
  const char *Trees[] = {"hotpath-escape",     "lock-order",
                         "determinism-taint",  "cross-thread-write",
                         "arena-escape",       "fleet-shard"};
  for (const char *Tree : Trees) {
    std::string Sarif = path(std::string(Tree) + ".sarif");
    EXPECT_EQ(runLint("--root " + fixture(Tree) + " --sarif " + Sarif + " " +
                      fixture(Tree) + "/src"),
              1)
        << Tree;
    std::string Report = slurp(Sarif);
    EXPECT_NE(Report.find("\"version\": \"2.1.0\""), std::string::npos)
        << Tree;
    for (const char *Name :
         {"\"Nondeterminism\"", "\"HotpathEscape\"", "\"LockOrder\"",
          "\"DeterminismTaint\"", "\"CrossThreadWrite\"",
          "\"ArenaEscape\""})
      EXPECT_NE(Report.find(Name), std::string::npos) << Tree << " " << Name;
    EXPECT_NE(Report.find("\"ruleIndex\""), std::string::npos) << Tree;
    EXPECT_NE(Report.find("\"partialFingerprints\""), std::string::npos)
        << Tree;
    EXPECT_NE(Report.find("\"medleyLintKey/v2\""), std::string::npos) << Tree;
  }
}

TEST_F(SemanticCliTest, StaleBaselineFailsWithExitThreeAndPruneRepairs) {
  std::string Base = path("baseline.txt");
  std::string Tree = fixture("arena-escape");

  // Findings still fail the run while the baseline is being written.
  EXPECT_EQ(runLint("--root " + Tree + " --write-baseline " + Base + " " +
                    Tree + "/src"),
            1);
  // A fully covering baseline turns the run green.
  EXPECT_EQ(runLint("--root " + Tree + " --baseline " + Base + " " + Tree +
                    "/src"),
            0);

  // Plant a stale entry (plus a comment that must survive pruning).
  {
    std::ofstream Out(Base, std::ios::app);
    Out << "# keep this comment\n";
    Out << "src/Gone.cpp|arena-escape|float *Dead = nullptr;\n";
  }
  // Default: stale entries warn but stay green (local burn-down).
  EXPECT_EQ(runLint("--root " + Tree + " --baseline " + Base + " " + Tree +
                    "/src"),
            0);
  // The CI gate: clean tree + stale baseline = exit 3.
  EXPECT_EQ(runLint("--root " + Tree + " --baseline " + Base +
                    " --fail-stale-baseline " + Tree + "/src"),
            3);
  // Pruning rewrites the file in place; the pruning run still reports
  // the staleness it repaired, the next run is clean.
  EXPECT_EQ(runLint("--root " + Tree + " --baseline " + Base +
                    " --prune-baseline --fail-stale-baseline " + Tree +
                    "/src"),
            3);
  std::string Pruned = slurp(Base);
  EXPECT_EQ(Pruned.find("src/Gone.cpp"), std::string::npos) << Pruned;
  EXPECT_NE(Pruned.find("# keep this comment"), std::string::npos) << Pruned;
  EXPECT_EQ(runLint("--root " + Tree + " --baseline " + Base +
                    " --fail-stale-baseline " + Tree + "/src"),
            0);
}

TEST_F(SemanticCliTest, FixtureReportsAreByteIdenticalAcrossJobsAndCache) {
  // The flow-sensitive rules ride phase 1 (cached, parallel): the JSON
  // report must not depend on worker count or cache temperature.
  std::string Tree = fixture("cross-thread-write");
  std::string Cache = path("cache.txt");
  std::string R1 = path("r1.json"), R4 = path("r4.json"),
              RW = path("rw.json");
  EXPECT_EQ(runLint("--jobs 1 --root " + Tree + " --json " + R1 + " " + Tree +
                    "/src"),
            1);
  EXPECT_EQ(runLint("--jobs 4 --cache " + Cache + " --root " + Tree +
                    " --json " + R4 + " " + Tree + "/src"),
            1);
  EXPECT_EQ(runLint("--jobs 4 --cache " + Cache + " --root " + Tree +
                    " --json " + RW + " " + Tree + "/src"),
            1);
  std::string A = slurp(R1);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, slurp(R4));
  EXPECT_EQ(A, slurp(RW));
}

#endif // MEDLEY_LINT_BIN && MEDLEY_LINT_FIXTURE_DIR
