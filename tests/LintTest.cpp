//===-- tests/LintTest.cpp - medley-lint rule & CLI tests ----------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each rule family is exercised on a known-bad snippet (must fire) and
/// a known-good one (must stay quiet); the allow annotation covers its
/// line, the next one and a multi-line statement; the call-graph link
/// behind the lock-order rule resolves names across files; and the CLI's
/// exit-code contract (0 clean, 1 findings, 2 usage error) is checked end
/// to end against the real binary, with the seeded lock-order tree.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/CallGraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sys/wait.h>

using namespace medley::lint;

namespace {

/// Lints \p Source as if it lived at src/core/Fixture.cpp.
std::vector<Finding> lintAsSrc(const std::string &Source) {
  return lintSource("src/core/Fixture.cpp", Source, FileKind::Src);
}

/// The rule names present in \p Findings, joined for diagnostics.
std::string rulesOf(const std::vector<Finding> &Findings) {
  std::string Out;
  for (const Finding &F : Findings)
    Out += F.Rule + ";";
  return Out;
}

bool hasRule(const std::vector<Finding> &Findings, const std::string &Rule) {
  for (const Finding &F : Findings)
    if (F.Rule == Rule)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LintLexerTest, TracksLinesAndColumns) {
  LexedFile L = lex("int a;\n  foo(1.5);\n");
  ASSERT_GE(L.Tokens.size(), 7u);
  EXPECT_EQ(L.Tokens[0].Text, "int");
  EXPECT_EQ(L.Tokens[0].Line, 1u);
  EXPECT_EQ(L.Tokens[3].Text, "foo");
  EXPECT_EQ(L.Tokens[3].Line, 2u);
  EXPECT_EQ(L.Tokens[3].Col, 3u);
  EXPECT_EQ(L.Tokens[5].Text, "1.5");
  EXPECT_EQ(L.Tokens[5].K, Token::Number);
}

TEST(LintLexerTest, BannedNamesInsideStringsAndCommentsAreNotTokens) {
  // "rand(" in a string literal or comment must not produce Ident
  // tokens, or every log message would trip the lint.
  LexedFile L = lex("auto S = \"rand() time()\"; // rand() here too\n"
                    "/* std::rand() */ int X;\n");
  for (const Token &T : L.Tokens)
    if (T.K == Token::Ident) {
      EXPECT_NE(T.Text, "rand");
    }
}

TEST(LintLexerTest, RawStringsAreOpaque) {
  LexedFile L = lex("auto S = R\"(srand(1) random_device)\"; int Y;\n");
  for (const Token &T : L.Tokens)
    if (T.K == Token::Ident) {
      EXPECT_NE(T.Text, "srand");
      EXPECT_NE(T.Text, "random_device");
    }
}

TEST(LintLexerTest, AllowAnnotationsParse) {
  LexedFile L = lex("int A; // medley-lint: allow(float-equality)\n"
                    "// medley-lint: allow(nondeterminism, raw-concurrency)\n"
                    "int B;\n");
  ASSERT_TRUE(L.AllowedByLine.count(1));
  EXPECT_TRUE(L.AllowedByLine[1].count("float-equality"));
  ASSERT_TRUE(L.AllowedByLine.count(2));
  EXPECT_TRUE(L.AllowedByLine[2].count("nondeterminism"));
  EXPECT_TRUE(L.AllowedByLine[2].count("raw-concurrency"));
}

//===----------------------------------------------------------------------===//
// Path classification
//===----------------------------------------------------------------------===//

TEST(LintPathTest, ClassifiesTreePositions) {
  EXPECT_EQ(classifyPath("src/core/Expert.cpp"), FileKind::Src);
  EXPECT_EQ(classifyPath("/abs/repo/src/exp/Driver.cpp"), FileKind::Src);
  EXPECT_EQ(classifyPath("src/support/ThreadPool.cpp"), FileKind::SrcSupport);
  EXPECT_EQ(classifyPath("apps/medley.cpp"), FileKind::Apps);
  EXPECT_EQ(classifyPath("bench/bench_fig08_summary.cpp"), FileKind::Bench);
  EXPECT_EQ(classifyPath("tests/CoreTest.cpp"), FileKind::Tests);
  EXPECT_EQ(classifyPath("docs/example.cpp"), FileKind::Other);
}

//===----------------------------------------------------------------------===//
// L1: nondeterminism
//===----------------------------------------------------------------------===//

TEST(LintNondeterminismTest, FiresOnEachBannedSource) {
  const char *Bad[] = {
      "int f() { return std::rand(); }",
      "int f() { return rand(); }",
      "void f() { srand(42); }",
      "long f() { return time(nullptr); }",
      "auto f() { return std::chrono::system_clock::now(); }",
      "auto f() { return std::chrono::steady_clock::now(); }",
      "auto f() { return std::chrono::high_resolution_clock::now(); }",
      "unsigned f() { std::random_device D; return D(); }",
  };
  for (const char *Source : Bad) {
    auto Findings = lintAsSrc(Source);
    EXPECT_TRUE(hasRule(Findings, "nondeterminism"))
        << "expected a finding for: " << Source;
  }
}

TEST(LintNondeterminismTest, QuietOnSeededRngAndLookalikes) {
  const char *Good[] = {
      "double f(Rng &R) { return R.uniform(0.0, 1.0); }",
      "double f(const Trace &T) { return T.time(); }",   // member named time
      "int f() { return mylib::rand(); }",               // other namespace
      "double sleepTime(int N) { return N * 0.5; }",     // suffix lookalike
      "using Clock = std::chrono::steady_clock;",        // alias, no read
  };
  for (const char *Source : Good) {
    auto Findings = lintAsSrc(Source);
    EXPECT_FALSE(hasRule(Findings, "nondeterminism"))
        << "unexpected finding " << rulesOf(Findings) << " for: " << Source;
  }
}

TEST(LintNondeterminismTest, OnlyAppliesUnderSrc) {
  std::string Source = "auto f() { return std::chrono::steady_clock::now(); }";
  EXPECT_TRUE(hasRule(lintAsSrc(Source), "nondeterminism"));
  EXPECT_FALSE(hasRule(
      lintSource("bench/bench_x.cpp", Source, FileKind::Bench),
      "nondeterminism"));
  EXPECT_FALSE(hasRule(lintSource("tests/XTest.cpp", Source, FileKind::Tests),
                       "nondeterminism"));
}

//===----------------------------------------------------------------------===//
// L2: unordered-reduction
//===----------------------------------------------------------------------===//

TEST(LintUnorderedReductionTest, FiresOnRangeForAccumulation) {
  auto Findings = lintAsSrc(
      "double total(const std::unordered_map<std::string, double> &M) {\n"
      "  double Sum = 0;\n"
      "  for (const auto &[K, V] : M)\n"
      "    Sum += V;\n"
      "  return Sum;\n"
      "}\n");
  EXPECT_TRUE(hasRule(Findings, "unordered-reduction"));
}

TEST(LintUnorderedReductionTest, FiresOnIteratorLoopPushBack) {
  auto Findings = lintAsSrc(
      "std::vector<int> keys(const std::unordered_set<int> &S) {\n"
      "  std::vector<int> Out;\n"
      "  for (auto It = S.begin(); It != S.end(); ++It)\n"
      "    Out.push_back(*It);\n"
      "  return Out;\n"
      "}\n");
  EXPECT_TRUE(hasRule(Findings, "unordered-reduction"));
}

TEST(LintUnorderedReductionTest, QuietOnOrderedMapAndNonReductions) {
  const char *Good[] = {
      // Ordered container: iteration order is the key order.
      "double total(const std::map<std::string, double> &M) {\n"
      "  double Sum = 0;\n"
      "  for (const auto &[K, V] : M) Sum += V;\n"
      "  return Sum;\n}\n",
      // Unordered, but the body only reads.
      "bool anyNeg(const std::unordered_map<int, int> &M) {\n"
      "  for (const auto &[K, V] : M) if (V < 0) return true;\n"
      "  return false;\n}\n",
      // Counting loop over a vector that merely checks size.
      "int f(const std::vector<int> &V) {\n"
      "  int N = 0;\n"
      "  for (size_t I = 0; I < V.size(); ++I) N += V[I];\n"
      "  return N;\n}\n",
  };
  for (const char *Source : Good) {
    auto Findings = lintAsSrc(Source);
    EXPECT_FALSE(hasRule(Findings, "unordered-reduction"))
        << "unexpected finding for: " << Source;
  }
}

//===----------------------------------------------------------------------===//
// L3: raw-concurrency
//===----------------------------------------------------------------------===//

TEST(LintRawConcurrencyTest, FiresOnThreadDetachAndRawLock) {
  const char *Bad[] = {
      "void f() { std::thread T([] {}); T.join(); }",
      "void f(std::thread &T) { T.detach(); }",
      "void f(std::mutex &M) { M.lock(); }",
  };
  for (const char *Source : Bad) {
    auto Findings = lintAsSrc(Source);
    EXPECT_TRUE(hasRule(Findings, "raw-concurrency"))
        << "expected a finding for: " << Source;
  }
}

TEST(LintRawConcurrencyTest, QuietOnPoolQueriesAndGuards) {
  const char *Good[] = {
      "unsigned f() { return std::thread::hardware_concurrency(); }",
      "void f(std::mutex &M) { std::lock_guard<std::mutex> G(M); }",
      "void f(support::ThreadPool &P) { P.parallelFor(8, [](size_t) {}); }",
  };
  for (const char *Source : Good) {
    auto Findings = lintAsSrc(Source);
    EXPECT_FALSE(hasRule(Findings, "raw-concurrency"))
        << "unexpected finding " << rulesOf(Findings) << " for: " << Source;
  }
}

TEST(LintRawConcurrencyTest, SupportTreeIsExempt) {
  std::string Source = "void f() { std::thread T([] {}); T.join(); }";
  EXPECT_TRUE(hasRule(lintAsSrc(Source), "raw-concurrency"));
  EXPECT_FALSE(hasRule(lintSource("src/support/ThreadPool.cpp", Source,
                                  FileKind::SrcSupport),
                       "raw-concurrency"));
}

//===----------------------------------------------------------------------===//
// L4: float-equality
//===----------------------------------------------------------------------===//

TEST(LintFloatEqualityTest, FiresOnLiteralComparisons) {
  const char *Bad[] = {
      "bool f(double X) { return X == 1.0; }",
      "bool f(double X) { return 0.5 != X; }",
      "bool f(double X) { return X == -2.5; }",
      "bool f(double X) { return X == 1e-6; }",
  };
  for (const char *Source : Bad) {
    auto Findings = lintAsSrc(Source);
    EXPECT_TRUE(hasRule(Findings, "float-equality"))
        << "expected a finding for: " << Source;
  }
}

TEST(LintFloatEqualityTest, QuietOnIntegersToleranceAndAssertions) {
  const char *Good[] = {
      "bool f(int X) { return X == 1; }",
      "bool f(unsigned X) { return X == 0x10; }",
      "bool f(double X) { return std::abs(X - 1.0) < 1e-9; }",
      "void t(double X) { EXPECT_EQ(X, 1.0); }",
      "void t(double X) { ASSERT_TRUE(X == 1.0); }",
      "void t(double X) { EXPECT_TRUE(near(X == 1.0 ? X : 0.0, 0.0)); }",
  };
  for (const char *Source : Good) {
    auto Findings =
        lintSource("tests/XTest.cpp", Source, FileKind::Tests);
    EXPECT_FALSE(hasRule(Findings, "float-equality"))
        << "unexpected finding for: " << Source;
  }
}

TEST(LintFloatEqualityTest, BareComparisonStillFiresInTests) {
  auto Findings = lintSource("tests/XTest.cpp",
                             "bool f(double X) { return X == 1.0; }",
                             FileKind::Tests);
  EXPECT_TRUE(hasRule(Findings, "float-equality"));
}

//===----------------------------------------------------------------------===//
// L5: error-check
//===----------------------------------------------------------------------===//

TEST(LintErrorCheckTest, FiresOnIgnoredOutParam) {
  auto Findings = lintAsSrc(
      "std::optional<int> load(const std::string &Path, Error *Err) {\n"
      "  if (Path.empty())\n"
      "    return std::nullopt;\n"
      "  return 42;\n"
      "}\n");
  EXPECT_TRUE(hasRule(Findings, "error-check"));
}

TEST(LintErrorCheckTest, QuietWhenParamIsUsedOrDeclarationOnly) {
  const char *Good[] = {
      // Forwarded to the reporting helper.
      "std::optional<int> load(const std::string &P, Error *Err) {\n"
      "  reportError(Err, ErrorCode::IoFailure, \"cannot open\");\n"
      "  return std::nullopt;\n}\n",
      // Assigned directly.
      "bool f(support::Error *Err) {\n"
      "  if (Err) *Err = Error(ErrorCode::CorruptInput, \"bad\");\n"
      "  return false;\n}\n",
      // Declaration: no body to check.
      "std::optional<int> load(const std::string &Path, Error *Err = nullptr);",
      // Out-param with an unrelated name is outside the heuristic.
      "void g(Error *Sink) { (void)0; }",
  };
  for (const char *Source : Good) {
    auto Findings = lintAsSrc(Source);
    EXPECT_FALSE(hasRule(Findings, "error-check"))
        << "unexpected finding for: " << Source;
  }
}

//===----------------------------------------------------------------------===//
// Allow annotations
//===----------------------------------------------------------------------===//

TEST(LintAllowTest, SameLineAndLineAboveSuppress) {
  EXPECT_TRUE(lintAsSrc("bool f(double X) { return X == 1.0; } "
                        "// medley-lint: allow(float-equality)\n")
                  .empty());
  EXPECT_TRUE(lintAsSrc("// medley-lint: allow(float-equality)\n"
                        "bool f(double X) { return X == 1.0; }\n")
                  .empty());
}

TEST(LintAllowTest, WrongRuleDoesNotSuppress) {
  auto Findings = lintAsSrc("bool f(double X) { return X == 1.0; } "
                            "// medley-lint: allow(nondeterminism)\n");
  EXPECT_TRUE(hasRule(Findings, "float-equality"));
}

TEST(LintAllowTest, AllSuppressesEverything) {
  EXPECT_TRUE(lintAsSrc("// medley-lint: allow(all)\n"
                        "int f() { return std::rand(); }\n")
                  .empty());
}

TEST(LintAllowTest, DoesNotLeakPastTheNextLine) {
  auto Findings = lintAsSrc("// medley-lint: allow(float-equality)\n"
                            "int A;\n"
                            "bool f(double X) { return X == 1.0; }\n");
  EXPECT_TRUE(hasRule(Findings, "float-equality"));
}

//===----------------------------------------------------------------------===//
// Multi-line allow coverage
//===----------------------------------------------------------------------===//

TEST(AllowCoverageTest, AnnotationAboveCoversWholeStatement) {
  auto Findings = lintAsSrc("bool f(double X, double Y) {\n"
                            "  // medley-lint: allow(float-equality)\n"
                            "  bool B = pick(X,\n"
                            "                Y,\n"
                            "                X == 1.0);\n"
                            "  return B;\n"
                            "}\n");
  EXPECT_FALSE(hasRule(Findings, "float-equality")) << rulesOf(Findings);
}

TEST(AllowCoverageTest, AnnotationOnFirstStatementLineCoversTheRest) {
  auto Findings =
      lintAsSrc("bool f(double X, double Y) {\n"
                "  bool B = pick(X, // medley-lint: allow(float-equality)\n"
                "                Y,\n"
                "                X == 1.0);\n"
                "  return B;\n"
                "}\n");
  EXPECT_FALSE(hasRule(Findings, "float-equality")) << rulesOf(Findings);
}

TEST(AllowCoverageTest, WithoutAnnotationTheSameStatementFires) {
  auto Findings = lintAsSrc("bool f(double X, double Y) {\n"
                            "  bool B = pick(X,\n"
                            "                Y,\n"
                            "                X == 1.0);\n"
                            "  return B;\n"
                            "}\n");
  EXPECT_TRUE(hasRule(Findings, "float-equality"));
}

TEST(AllowCoverageTest, CoverageEndsAtTheStatementSemicolon) {
  auto Findings = lintAsSrc("bool f(double X, double Y) {\n"
                            "  // medley-lint: allow(float-equality)\n"
                            "  bool B = pick(X,\n"
                            "                Y);\n"
                            "  bool C = (X == 1.0);\n"
                            "  return B && C;\n"
                            "}\n");
  EXPECT_TRUE(hasRule(Findings, "float-equality")) << rulesOf(Findings);
}

//===----------------------------------------------------------------------===//
// Call-graph linking and resolution
//===----------------------------------------------------------------------===//

namespace {

FileIndex indexSrc(const std::string &Path, const std::string &Source) {
  return buildFileIndex(Path, Source);
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
// L8: lock-order
//===----------------------------------------------------------------------===//

namespace {

/// Two files of one class: publish() orders A before B, and drain()
/// holds \p DrainLock while calling refresh(), defined in the other file,
/// which takes A.
std::vector<SourceFile> pipelineTree(const std::string &DrainLock) {
  return {{"src/core/Pipeline.cpp",
           "class Pipeline {\n"
           "  void publish(); void drain(); void refresh();\n"
           "  std::mutex A; std::mutex B;\n"
           "};\n"
           "void Pipeline::publish() {\n"
           "  std::lock_guard<std::mutex> GA(A);\n"
           "  std::lock_guard<std::mutex> GB(B);\n"
           "}\n"
           "void Pipeline::drain() {\n"
           "  std::lock_guard<std::mutex> G(" + DrainLock + ");\n"
           "  refresh();\n"
           "}\n"},
          {"src/core/Refresh.cpp",
           "void Pipeline::refresh() { std::lock_guard<std::mutex> G(A); }\n"}};
}

} // namespace

TEST(LintLockOrderTest, CycleAcrossFilesFires) {
  auto Findings = lintTree(pipelineTree("B"));
  ASSERT_TRUE(hasRule(Findings, "lock-order")) << rulesOf(Findings);
  EXPECT_EQ(Findings[0].File, "src/core/Pipeline.cpp");
  EXPECT_NE(Findings[0].Message.find("Pipeline::A -> Pipeline::B"),
            std::string::npos)
      << Findings[0].Message;
}

TEST(LintLockOrderTest, ConsistentOrderStaysQuiet) {
  EXPECT_FALSE(hasRule(lintTree(pipelineTree("A")), "lock-order"));
}

TEST(LintLockOrderTest, BlockingCallUnderLockFiresOnlyInSrc) {
  std::string Source = "void wait(std::mutex &M) {\n"
                       "  std::lock_guard<std::mutex> G(M);\n"
                       "  std::this_thread::sleep_for(Delay);\n"
                       "}\n"
                       "void waitUnlocked(std::mutex &M) {\n"
                       "  { std::lock_guard<std::mutex> G(M); }\n"
                       "  std::this_thread::sleep_for(Delay);\n"
                       "}\n";
  auto Findings = lintTree({{"src/support/Wait.cpp", Source}});
  ASSERT_EQ(Findings.size(), 1u) << rulesOf(Findings);
  EXPECT_EQ(Findings[0].Rule, "lock-order");
  EXPECT_EQ(Findings[0].Line, 3u);
  EXPECT_TRUE(lintTree({{"tests/WaitTest.cpp", Source}}).empty());
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(LintReportTest, TextFormatIsGccStyle) {
  auto Findings = lintAsSrc("bool f(double X) { return X == 1.0; }\n");
  ASSERT_EQ(Findings.size(), 1u);
  std::string Text = renderText(Findings[0]);
  EXPECT_EQ(Text.rfind("src/core/Fixture.cpp:1:", 0), 0u) << Text;
  EXPECT_NE(Text.find("[float-equality]"), std::string::npos) << Text;
}

TEST(LintReportTest, FindingsAreSortedByPosition) {
  auto Findings = lintAsSrc("bool g(double X) { return X == 2.0; }\n"
                            "int h() { return std::rand(); }\n"
                            "bool i(double X) { return X != 3.0; }\n");
  ASSERT_EQ(Findings.size(), 3u);
  EXPECT_LT(Findings[0].Line, Findings[1].Line);
  EXPECT_LT(Findings[1].Line, Findings[2].Line);
}

//===----------------------------------------------------------------------===//
// CLI exit codes (drives the real binary)
//===----------------------------------------------------------------------===//

#ifdef MEDLEY_LINT_BIN

namespace {

/// Runs the medley-lint binary with its report on \p Stdout and returns
/// its exit status (-1 when the shell invocation itself failed).
int runLint(const std::string &Args, const std::string &Stdout = "/dev/null") {
  std::string Cmd = std::string(MEDLEY_LINT_BIN) + " " + Args + " > " +
                    Stdout + " 2> /dev/null";
  int Status = std::system(Cmd.c_str());
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

/// A scratch tree under the gtest temp dir with one good and one bad
/// source file laid out like the real repo.
class LintCliTest : public ::testing::Test {
protected:
  void SetUp() override {
    // One scratch tree per test case: ctest -j runs each case as its
    // own process, so a shared directory would race.
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = std::filesystem::path(::testing::TempDir()) /
          (std::string("medley_lint_cli_") + Info->name());
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir / "src" / "core");
    write("src/core/Good.cpp",
          "int add(int A, int B) { return A + B; }\n");
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  void write(const std::string &Rel, const std::string &Contents) {
    std::ofstream Out(Dir / Rel);
    Out << Contents;
  }

  std::string path(const std::string &Rel = "") const {
    return (Dir / Rel).string();
  }

  std::filesystem::path Dir;
};

} // namespace

TEST_F(LintCliTest, ExitsZeroOnCleanTree) {
  EXPECT_EQ(runLint(path("src")), 0);
}

TEST_F(LintCliTest, ExitsOneOnFindings) {
  write("src/core/Bad.cpp", "int f() { return std::rand(); }\n");
  EXPECT_EQ(runLint(path("src")), 1);
}

TEST_F(LintCliTest, ExitsTwoOnUsageErrors) {
  EXPECT_EQ(runLint(""), 2);                        // no paths
  EXPECT_EQ(runLint("--frobnicate " + path("src")), 2); // unknown flag
  EXPECT_EQ(runLint(path("no/such/dir")), 2);       // missing path
  EXPECT_EQ(runLint("--root"), 2);                  // --root without a value
}

TEST_F(LintCliTest, RootStripsPathPrefix) {
  write("src/core/Bad.cpp", "int f() { return std::rand(); }\n");
  std::string Report = path("report.txt");
  EXPECT_EQ(runLint("--root " + path() + " " + path("src"), Report), 1);
  std::ifstream In(Report);
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(Contents.rfind("src/core/Bad.cpp:1:", 0), 0u) << Contents;
}

TEST_F(LintCliTest, LockOrderFixtureFiresForCycleAndBlockingCall) {
  std::string Root = std::string(MEDLEY_LINT_FIXTURE_DIR) + "/lock-order";
  std::string Report = path("report.txt");
  EXPECT_EQ(runLint("--root " + Root + " " + Root + "/src", Report), 1);
  std::ifstream In(Report);
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(Contents.find("lock-order cycle"), std::string::npos) << Contents;
  EXPECT_NE(Contents.find("held across blocking call"), std::string::npos)
      << Contents;
}

#endif // MEDLEY_LINT_BIN
