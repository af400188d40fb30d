//===-- tools/medley-lint/Index.cpp - Per-file symbol indexer ------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heuristic single-pass C++ reader producing the FileIndex: a scope
/// walk (namespaces, classes) that recognizes function definitions, and
/// per body a linear scan for call/allocation/lock sites plus a
/// statement-level pass for the taint flows. No AST, no preprocessor:
/// what the token stream cannot express (templated call names, macro
/// expansion) is under-approximated, never guessed.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Cfg.h"
#include "medley-lint/Dataflow.h"
#include "medley-lint/Index.h"
#include "medley-lint/Internal.h"

#include <algorithm>
#include <array>
#include <sstream>

using namespace medley::lint;

namespace {

using Tokens = std::vector<Token>;

bool punctIs(const Tokens &T, size_t I, const char *Text) {
  return I < T.size() && T[I].K == Token::Punct && T[I].Text == Text;
}

bool identIs(const Tokens &T, size_t I, const char *Text) {
  return I < T.size() && T[I].K == Token::Ident && T[I].Text == Text;
}

template <size_t N>
bool oneOf(const std::string &S, const std::array<const char *, N> &Set) {
  for (const char *E : Set)
    if (S == E)
      return true;
  return false;
}

/// Keywords that can introduce a `name(` pattern without naming a
/// function definition or call.
bool isControlKw(const std::string &S) {
  static const std::array<const char *, 24> Kw = {
      "if",       "for",          "while",     "switch",   "catch",
      "return",   "sizeof",       "alignof",   "alignas",  "decltype",
      "new",      "delete",       "throw",     "else",     "do",
      "case",     "goto",         "template",  "typename", "using",
      "typedef",  "static_assert","noexcept",  "requires"};
  return oneOf(S, Kw);
}

/// Identifiers that may legitimately precede a call (everything else
/// before `name(` means `name` is a declarator, e.g. `Vec add(`).
bool precedesCall(const std::string &S) {
  static const std::array<const char *, 5> Kw = {"return", "else", "do",
                                                 "throw", "co_return"};
  return oneOf(S, Kw);
}

bool isGuardType(const std::string &S) {
  static const std::array<const char *, 4> G = {"lock_guard", "scoped_lock",
                                                "unique_lock", "shared_lock"};
  return oneOf(S, G);
}

bool isGrowthMember(const std::string &S) {
  static const std::array<const char *, 7> G = {
      "push_back", "emplace_back", "insert",       "emplace",
      "append",    "push_front",   "emplace_front"};
  return oneOf(S, G);
}

bool isAllocCall(const std::string &S) {
  static const std::array<const char *, 8> A = {
      "malloc",      "calloc",      "realloc",  "strdup",
      "aligned_alloc", "make_unique", "make_shared", "to_string"};
  return oneOf(S, A);
}

bool isLinalgValueCall(const std::string &S) {
  static const std::array<const char *, 4> L = {"add", "sub", "scale",
                                                "hadamard"};
  return oneOf(S, L);
}

bool isClockName(const std::string &S) {
  return S == "system_clock" || S == "steady_clock" ||
         S == "high_resolution_clock";
}

bool isEntropyCallName(const std::string &S) {
  return S == "rand" || S == "srand" || S == "time" || S == "clock" ||
         S == "getenv";
}

/// Sinks the taint analysis watches: RNG (re)seeding and engine
/// construction. Stream/trace output is detected structurally.
bool isSeedSink(const std::string &S) {
  static const std::array<const char *, 7> K = {
      "seed",        "srand",       "mt19937", "mt19937_64",
      "minstd_rand", "default_random_engine", "Rng"};
  return oneOf(S, K);
}

/// Calls that move a lambda argument onto another thread: the lambda's
/// body becomes a synthetic IsThreadBody function node (DESIGN.md §15).
bool isSpawnCall(const std::string &S) {
  static const std::array<const char *, 5> K = {
      "parallelFor", "submit", "async", "thread", "emplace_back"};
  return oneOf(S, K);
}

/// The indexer proper: one instance per file.
class Indexer {
public:
  Indexer(const Tokens &Toks, const std::vector<std::string> &Lines,
          FileIndex &Out)
      : T(Toks), Lines(Lines), Out(Out) {}

  void run() {
    std::vector<std::string> Ns, Cls;
    parseScope(0, T.size(), Ns, Cls);
  }

private:
  const Tokens &T;
  const std::vector<std::string> &Lines;
  FileIndex &Out;
  /// Token ranges of task lambdas extracted from the function currently
  /// being finished; the linear passes skip them so their events are
  /// attributed to the synthetic lambda node, not the spawner.
  std::vector<std::pair<size_t, size_t>> CurSkips;

  bool skipAt(size_t I, size_t &End) const {
    for (const std::pair<size_t, size_t> &R : CurSkips)
      if (I >= R.first && I < R.second) {
        End = R.second;
        return true;
      }
    return false;
  }

  std::string lineText(unsigned Line) const {
    if (Line >= 1 && Line <= Lines.size())
      return trim(Lines[Line - 1]);
    return "";
  }

  //===--------------------------------------------------------------------===//
  // Scope walk
  //===--------------------------------------------------------------------===//

  void parseScope(size_t B, size_t E, std::vector<std::string> &Ns,
                  std::vector<std::string> &Cls) {
    size_t I = B;
    while (I < E) {
      const Token &Tok = T[I];
      if (Tok.K == Token::Punct) {
        if (Tok.Text == "{") {
          I = skipBalanced(T, I, "{", "}"); // stray block / initializer
          continue;
        }
        ++I;
        continue;
      }
      if (Tok.K != Token::Ident) {
        ++I;
        continue;
      }

      if (Tok.Text == "namespace") {
        I = parseNamespace(I, E, Ns, Cls);
        continue;
      }
      if (Tok.Text == "class" || Tok.Text == "struct" || Tok.Text == "union") {
        I = parseClass(I, E, Ns, Cls);
        continue;
      }
      if (Tok.Text == "enum") {
        size_t J = I + 1;
        while (J < E && !punctIs(T, J, "{") && !punctIs(T, J, ";"))
          ++J;
        I = punctIs(T, J, "{") ? skipBalanced(T, J, "{", "}") : J + 1;
        continue;
      }
      if (Tok.Text == "template" && punctIs(T, I + 1, "<")) {
        I = skipTemplateArgs(T, I + 1);
        continue;
      }

      size_t Next;
      if (tryFunctionDef(I, E, Ns, Cls, Next)) {
        I = Next;
        continue;
      }
      if (tryFieldDecl(I, E, Cls.empty() ? "" : Cls.back(), Next)) {
        I = Next;
        continue;
      }
      ++I;
    }
  }

  /// Instance-field / global variable declarations at class or
  /// namespace scope: `std::atomic<uint64_t> Epoch{0};`,
  /// `support::FaultStats *Stats = nullptr;`, `std::mutex Mu;`.
  /// Consumes the statement on success (a field may or may not be
  /// recorded); returns false for anything that is not clearly a
  /// variable declaration, leaving the scan untouched.
  bool tryFieldDecl(size_t I, size_t E, const std::string &Class,
                    size_t &Next) {
    if (T[I].K != Token::Ident)
      return false;
    const std::string &First = T[I].Text;
    if ((First == "public" || First == "private" || First == "protected") &&
        punctIs(T, I + 1, ":")) {
      Next = I + 2;
      return true;
    }
    if (isControlKw(First) || First == "operator" || First == "friend" ||
        First == "extern" || First == "virtual" || First == "explicit")
      return false;

    size_t J = I;
    size_t LastIdent = 0;
    size_t NamePos = 0;
    bool Ended = false;
    while (J < E && !Ended) {
      const Token &K = T[J];
      if (K.K == Token::Ident) {
        LastIdent = J;
        if (punctIs(T, J + 1, "<")) {
          size_t Skip = skipTemplateArgs(T, J + 1);
          if (Skip > J + 2) {
            J = Skip;
            continue;
          }
        }
        ++J;
        continue;
      }
      if (K.K != Token::Punct)
        return false;
      const std::string &P = K.Text;
      if (P == "(")
        return false; // function declaration/definition or expression
      if (P == "[") {
        J = skipBalanced(T, J, "[", "]"); // array extent
        continue;
      }
      if (P == "{") {
        // Brace init directly after the declarator name.
        if (!LastIdent || J != LastIdent + 1)
          return false;
        NamePos = LastIdent;
        J = skipBalanced(T, J, "{", "}");
        continue;
      }
      if (P == "=") {
        if (!LastIdent)
          return false;
        NamePos = LastIdent;
        // Initializer: consume to the top-level ';'.
        int D = 0;
        while (J < E) {
          if (T[J].K == Token::Punct) {
            const std::string &Q = T[J].Text;
            if (Q == "(" || Q == "[" || Q == "{")
              ++D;
            else if (Q == ")" || Q == "]" || Q == "}")
              --D;
            else if (Q == ";" && D == 0)
              break;
          }
          ++J;
        }
        Ended = true;
        break;
      }
      if (P == ";") {
        if (!NamePos)
          NamePos = LastIdent;
        Ended = true;
        break;
      }
      if (P == "::" || P == "*" || P == "&" || P == ",") {
        ++J;
        continue;
      }
      return false;
    }
    if (!Ended || !NamePos || NamePos <= I)
      return false;
    Next = J + 1;

    bool Atomic = false, Mutex = false, Skip = false;
    for (size_t K = I; K < NamePos; ++K) {
      if (T[K].K != Token::Ident)
        continue;
      const std::string &Ty = T[K].Text;
      if (Ty == "atomic" || Ty.rfind("atomic_", 0) == 0)
        Atomic = true;
      else if (Ty.find("mutex") != std::string::npos ||
               Ty == "condition_variable" || Ty == "once_flag")
        Mutex = true;
      else if (Ty == "constexpr" || Ty == "thread_local")
        Skip = true; // compile-time or thread-private — never shared
    }
    if (!Skip) {
      FieldDecl FD;
      FD.Class = Class;
      FD.Name = T[NamePos].Text;
      FD.Atomic = Atomic;
      FD.Mutex = Mutex;
      Out.Fields.push_back(std::move(FD));
    }
    return true;
  }

  size_t parseNamespace(size_t I, size_t E, std::vector<std::string> &Ns,
                        std::vector<std::string> &Cls) {
    size_t J = I + 1;
    std::vector<std::string> Names;
    while (J < E && T[J].K == Token::Ident) {
      Names.push_back(T[J].Text);
      ++J;
      if (punctIs(T, J, "::"))
        ++J;
      else
        break;
    }
    if (punctIs(T, J, "{")) {
      size_t End = skipBalanced(T, J, "{", "}");
      for (const std::string &N : Names)
        Ns.push_back(N);
      parseScope(J + 1, End > 0 ? End - 1 : End, Ns, Cls);
      for (size_t K = 0; K < Names.size(); ++K)
        Ns.pop_back();
      return End;
    }
    // Alias (`namespace a = b;`) or using-directive fragment: to ';'.
    while (J < E && !punctIs(T, J, ";"))
      ++J;
    return J + 1;
  }

  size_t parseClass(size_t I, size_t E, std::vector<std::string> &Ns,
                    std::vector<std::string> &Cls) {
    size_t J = I + 1;
    std::string Name;
    if (J < E && T[J].K == Token::Ident) {
      Name = T[J].Text;
      ++J;
    }
    if (punctIs(T, J, "<")) // specialization — treated as the primary
      J = skipTemplateArgs(T, J);
    // Scan the head (final, base list) to '{' or ';'. A '(' means this
    // was a function/variable after all (`struct tm now(...)`).
    while (J < E && !punctIs(T, J, "{") && !punctIs(T, J, ";") &&
           !punctIs(T, J, "("))
      ++J;
    if (punctIs(T, J, "{")) {
      size_t End = skipBalanced(T, J, "{", "}");
      if (!Name.empty()) {
        Cls.push_back(Name);
        parseScope(J + 1, End > 0 ? End - 1 : End, Ns, Cls);
        Cls.pop_back();
      }
      return End;
    }
    return I + 1; // forward declaration or lookalike: re-scan normally
  }

  //===--------------------------------------------------------------------===//
  // Function definitions
  //===--------------------------------------------------------------------===//

  bool tryFunctionDef(size_t I, size_t E, const std::vector<std::string> &Ns,
                      const std::vector<std::string> &Cls, size_t &Next) {
    if (T[I].K != Token::Ident || !punctIs(T, I + 1, "("))
      return false;
    if (isControlKw(T[I].Text) || T[I].Text == "operator")
      return false;

    // Explicit qualifier chain written at the definition:
    // `void MixtureOfExperts::select(...)`.
    std::vector<std::string> Quals;
    size_t Back = I;
    bool Dtor = Back > 0 && punctIs(T, Back - 1, "~");
    if (Dtor)
      --Back;
    while (Back >= 2 && punctIs(T, Back - 1, "::") &&
           T[Back - 2].K == Token::Ident) {
      Quals.insert(Quals.begin(), T[Back - 2].Text);
      Back -= 2;
    }

    size_t AfterParams = skipBalanced(T, I + 1, "(", ")");
    size_t J = AfterParams;
    bool SeenColon = false; // inside a constructor initializer list
    while (J < E) {
      const Token &K = T[J];
      if (K.K != Token::Punct) {
        ++J; // const / noexcept / override / final / try / type names
        continue;
      }
      const std::string &P = K.Text;
      if (P == "{") {
        if (SeenColon && J > 0) {
          // Brace-init of a base/member (`Base{x}`) vs the body: the
          // body's '{' follows ')' or '}' of the previous initializer.
          const Token &Prev = T[J - 1];
          bool BraceInit = Prev.K == Token::Ident ||
                           (Prev.K == Token::Punct &&
                            (Prev.Text == ">" || Prev.Text == "::"));
          if (BraceInit) {
            J = skipBalanced(T, J, "{", "}");
            continue;
          }
        }
        size_t BodyEnd = skipBalanced(T, J, "{", "}");
        FunctionInfo Fn;
        Fn.Name = (Dtor ? "~" : "") + T[I].Text;
        Fn.Class = !Quals.empty() ? Quals.back()
                                  : (!Cls.empty() ? Cls.back() : "");
        std::string Qual;
        auto Append = [&Qual](const std::string &Part) {
          if (!Qual.empty())
            Qual += "::";
          Qual += Part;
        };
        for (const std::string &N : Ns)
          Append(N);
        for (const std::string &C : Cls)
          Append(C);
        for (const std::string &Q : Quals)
          Append(Q);
        Append(Fn.Name);
        Fn.Qual = Qual;
        Fn.Line = T[I].Line;
        Fn.Col = T[I].Col;
        Fn.LineText = lineText(Fn.Line);
        size_t BodyB = J + 1, BodyE = BodyEnd > 0 ? BodyEnd - 1 : BodyEnd;
        finishFunction(std::move(Fn), I + 2, AfterParams > I + 2
                                                 ? AfterParams - 1
                                                 : I + 2,
                       BodyB, BodyE, {}, 0);
        Next = BodyEnd;
        return true;
      }
      if (P == ";" || (!SeenColon && (P == "," || P == "=")))
        return false; // declaration, `= default`, or an expression
                      // (after ':' commas separate mem-initializers)
      if (P == "(") {
        J = skipBalanced(T, J, "(", ")");
        continue;
      }
      if (P == "<") {
        J = skipTemplateArgs(T, J);
        continue;
      }
      if (P == ":")
        SeenColon = true;
      ++J;
    }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Function finishing: linear passes, CFG, spawned task lambdas
  //===--------------------------------------------------------------------===//

  /// A lambda argument of a spawn call inside a function body.
  struct LambdaSpec {
    size_t Begin = 0, End = 0;     ///< Full `[..](..){..}` token range.
    size_t ParamB = 0, ParamE = 0; ///< Parameter range (inside parens).
    size_t BodyB = 0, BodyE = 0;   ///< Body range (inside braces).
    unsigned Line = 0, Col = 0;
    /// By-value and init captures: copies owned by the task.
    std::vector<std::string> ValueCaptures;
  };

  /// Finds lambdas passed to ThreadPool-style spawn calls inside
  /// [B, E). Each becomes a synthetic IsThreadBody function.
  void findSpawnLambdas(size_t B, size_t E, std::vector<LambdaSpec> &Specs) {
    for (size_t I = B; I < E; ++I) {
      if (T[I].K != Token::Ident || !isSpawnCall(T[I].Text) ||
          !punctIs(T, I + 1, "("))
        continue;
      size_t ArgsEnd = skipBalanced(T, I + 1, "(", ")");
      for (size_t J = I + 2; J + 1 < ArgsEnd; ++J) {
        if (!punctIs(T, J, "[") ||
            !(punctIs(T, J - 1, "(") || punctIs(T, J - 1, ",")))
          continue;
        LambdaSpec L;
        if (!parseLambda(J, ArgsEnd > 0 ? ArgsEnd - 1 : ArgsEnd, L))
          continue;
        Specs.push_back(std::move(L));
        J = Specs.back().End - 1;
      }
      I = ArgsEnd > I ? ArgsEnd - 1 : I;
    }
  }

  bool parseLambda(size_t LB, size_t E, LambdaSpec &L) {
    size_t CapEnd = skipBalanced(T, LB, "[", "]"); // one past ']'
    if (CapEnd >= E)
      return false;
    // Captures: by-value and init captures become task-local names.
    {
      std::vector<std::string> Parts;
      size_t PartB = LB + 1;
      int D = 0;
      for (size_t K = LB + 1; K + 1 < CapEnd; ++K) {
        if (T[K].K != Token::Punct)
          continue;
        const std::string &P = T[K].Text;
        if (P == "(" || P == "[" || P == "{")
          ++D;
        else if (P == ")" || P == "]" || P == "}")
          --D;
        else if (P == "," && D == 0) {
          capturedName(PartB, K, L.ValueCaptures);
          PartB = K + 1;
        }
      }
      capturedName(PartB, CapEnd > 0 ? CapEnd - 1 : CapEnd, L.ValueCaptures);
    }
    size_t P = CapEnd;
    if (punctIs(T, P, "(")) {
      size_t PEnd = skipBalanced(T, P, "(", ")");
      L.ParamB = P + 1;
      L.ParamE = PEnd > P + 1 ? PEnd - 1 : P + 1;
      P = PEnd;
    }
    while (P < E && !punctIs(T, P, "{")) {
      if (punctIs(T, P, ";") || punctIs(T, P, ")") || punctIs(T, P, ","))
        return false;
      ++P; // mutable / noexcept / -> return-type
    }
    if (!punctIs(T, P, "{"))
      return false;
    size_t BodyEnd = skipBalanced(T, P, "{", "}");
    L.Begin = LB;
    L.End = BodyEnd;
    L.BodyB = P + 1;
    L.BodyE = BodyEnd > P + 1 ? BodyEnd - 1 : P + 1;
    L.Line = T[LB].Line;
    L.Col = T[LB].Col;
    return true;
  }

  /// One capture-list entry: `X` and `X = expr` copy into the closure
  /// (task-local); `&X`, `this`, and bare defaults do not bind a
  /// task-owned name.
  void capturedName(size_t B, size_t E, std::vector<std::string> &Out) const {
    if (B >= E)
      return;
    if (T[B].K != Token::Ident || T[B].Text == "this")
      return; // '&', '=', '*this', or a ref capture
    if (E > B + 1 && !punctIs(T, B + 1, "="))
      return; // not a simple or init capture
    Out.push_back(T[B].Text);
  }

  /// Runs every per-function pass over one body: the linear call/lock/
  /// flow scans (skipping extracted task lambdas), then the CFG build
  /// and dataflow summaries, then recursion into each task lambda as a
  /// synthetic IsThreadBody function.
  void finishFunction(FunctionInfo Fn, size_t ParamB, size_t ParamE,
                      size_t BodyB, size_t BodyE,
                      std::vector<std::string> ExtraLocals, int Depth) {
    std::vector<LambdaSpec> Lambdas;
    if (Depth < 4)
      findSpawnLambdas(BodyB, BodyE, Lambdas);

    std::vector<std::pair<size_t, size_t>> Skips;
    Skips.reserve(Lambdas.size());
    for (const LambdaSpec &L : Lambdas)
      Skips.push_back({L.Begin, L.End});

    std::vector<std::pair<size_t, size_t>> SavedSkips = CurSkips;
    CurSkips = Skips;
    parseBody(BodyB, BodyE, Fn);
    parseFlows(BodyB, BodyE, Fn);

    CfgBuildContext Ctx;
    Ctx.Toks = &T;
    Ctx.Lines = &Lines;
    Ctx.ClassName = Fn.Class;
    Ctx.SeedLocals = collectParamNames(T, ParamB, ParamE);
    for (std::string &L : ExtraLocals)
      Ctx.SeedLocals.push_back(std::move(L));
    Ctx.SkipRanges = Skips;
    FunctionCfg Cfg = buildFunctionCfg(BodyB, BodyE, Ctx);
    computeFlowSummaries(Cfg, Fn);
    CurSkips = std::move(SavedSkips);

    for (LambdaSpec &L : Lambdas) {
      FunctionInfo LFn;
      LFn.Name = "<lambda:" + std::to_string(L.Line) + ":" +
                 std::to_string(L.Col) + ">";
      LFn.Qual = Fn.Qual + "::" + LFn.Name;
      LFn.Class = Fn.Class;
      LFn.Line = L.Line;
      LFn.Col = L.Col;
      LFn.LineText = lineText(L.Line);
      LFn.IsThreadBody = true;
      Fn.SpawnedBodies.push_back(LFn.Qual);
      finishFunction(std::move(LFn), L.ParamB, L.ParamE, L.BodyB, L.BodyE,
                     std::move(L.ValueCaptures), Depth + 1);
    }
    Out.Functions.push_back(std::move(Fn));
  }

  //===--------------------------------------------------------------------===//
  // Body scan: calls, allocations, locks
  //===--------------------------------------------------------------------===//

  /// `A.B->C` receiver chain ending just before the '.'/'->' at \p DotPos.
  std::string receiverChain(size_t DotPos) const {
    std::string Chain;
    size_t K = DotPos;
    while (K > 0) {
      const Token &P = T[K - 1];
      if (P.K != Token::Ident)
        break;
      Chain = P.Text + Chain;
      --K;
      if (K > 0 && T[K - 1].K == Token::Punct &&
          (T[K - 1].Text == "." || T[K - 1].Text == "->" ||
           T[K - 1].Text == "::")) {
        Chain = T[K - 1].Text + Chain;
        --K;
        continue;
      }
      break;
    }
    return Chain;
  }

  /// Lock identity: single identifiers inside a method are qualified
  /// with the class name so `Mu` means the same lock across the class's
  /// methods; expressions keep their text.
  std::string lockIdFor(std::string Expr, const FunctionInfo &Fn) const {
    while (!Expr.empty() && (Expr[0] == '&' || Expr[0] == '*'))
      Expr.erase(Expr.begin());
    bool Simple = Expr.find("::") == std::string::npos &&
                  Expr.find('.') == std::string::npos &&
                  Expr.find("->") == std::string::npos;
    if (Simple && !Fn.Class.empty())
      return Fn.Class + "::" + Expr;
    return Expr;
  }

  struct HeldLock {
    std::string Name;
    int Depth = 0;      ///< Brace depth of a scoped guard.
    bool Manual = false; ///< Raw .lock(): lives until .unlock() / return.
  };

  void acquire(const std::string &Id, unsigned Line, int Depth, bool Manual,
               std::vector<HeldLock> &Held, FunctionInfo &Fn) {
    for (const HeldLock &H : Held)
      if (H.Name != Id)
        Fn.LockEdges.push_back({H.Name, Id, Line, lineText(Line)});
    Fn.Acquires.push_back({Id, Line});
    Held.push_back({Id, Depth, Manual});
  }

  /// Splits the token range [B, E) at top-level commas into joined
  /// argument texts ("Job->DoneMutex").
  std::vector<std::string> splitArgs(size_t B, size_t E) const {
    std::vector<std::string> Args;
    std::string Cur;
    int Depth = 0;
    for (size_t I = B; I < E; ++I) {
      const Token &Tok = T[I];
      if (Tok.K == Token::Punct) {
        if (Tok.Text == "(" || Tok.Text == "{" || Tok.Text == "[")
          ++Depth;
        else if (Tok.Text == ")" || Tok.Text == "}" || Tok.Text == "]")
          --Depth;
        else if (Tok.Text == "," && Depth == 0) {
          Args.push_back(Cur);
          Cur.clear();
          continue;
        }
      }
      Cur += Tok.Text;
    }
    if (!Cur.empty())
      Args.push_back(Cur);
    return Args;
  }

  void parseBody(size_t B, size_t E, FunctionInfo &Fn) {
    int Depth = 0;
    std::vector<HeldLock> Held;

    auto heldNames = [&Held] {
      std::vector<std::string> Names;
      Names.reserve(Held.size());
      for (const HeldLock &H : Held)
        Names.push_back(H.Name);
      return Names;
    };

    for (size_t I = B; I < E; ++I) {
      size_t SkipEnd = 0;
      if (skipAt(I, SkipEnd)) {
        I = SkipEnd - 1; // balanced range: depth is unaffected
        continue;
      }
      const Token &Tok = T[I];
      if (Tok.K == Token::Punct) {
        if (Tok.Text == "{") {
          ++Depth;
        } else if (Tok.Text == "}") {
          Held.erase(std::remove_if(Held.begin(), Held.end(),
                                    [Depth](const HeldLock &H) {
                                      return !H.Manual && H.Depth == Depth;
                                    }),
                     Held.end());
          --Depth;
        }
        continue;
      }
      if (Tok.K != Token::Ident)
        continue;
      const std::string &Name = Tok.Text;

      if (Name == "new") {
        Fn.Allocs.push_back(
            {"'new' expression", Tok.Line, Tok.Col, lineText(Tok.Line)});
        continue;
      }
      if (Name == "random_device" || (isClockName(Name) &&
                                      punctIs(T, I + 1, "::") &&
                                      identIs(T, I + 2, "now")))
        Fn.HasSource = true;

      bool PrevDotArrow = I > B && T[I - 1].K == Token::Punct &&
                          (T[I - 1].Text == "." || T[I - 1].Text == "->");

      // Guard construction: std::lock_guard<std::mutex> G(M);
      if (!PrevDotArrow && isGuardType(Name)) {
        size_t J = I + 1;
        if (punctIs(T, J, "<"))
          J = skipTemplateArgs(T, J);
        if (J < E && T[J].K == Token::Ident && punctIs(T, J + 1, "(")) {
          size_t ArgsEnd = skipBalanced(T, J + 1, "(", ")");
          std::vector<std::string> Args = splitArgs(J + 2, ArgsEnd - 1);
          bool Defer = false;
          for (const std::string &A : Args)
            if (A.find("defer_lock") != std::string::npos)
              Defer = true;
          if (!Defer) {
            size_t Limit = Name == "scoped_lock" ? Args.size()
                                                 : std::min<size_t>(1, Args.size());
            for (size_t A = 0; A < Limit; ++A) {
              if (Args[A].find("adopt_lock") != std::string::npos ||
                  Args[A].find("try_to_lock") != std::string::npos)
                continue;
              acquire(lockIdFor(Args[A], Fn), Tok.Line, Depth, false, Held,
                      Fn);
            }
          }
          I = ArgsEnd - 1;
          continue;
        }
        continue;
      }

      if (PrevDotArrow && punctIs(T, I + 1, "(")) {
        if (Name == "lock" && punctIs(T, I + 2, ")")) {
          acquire(lockIdFor(receiverChain(I - 1), Fn), Tok.Line, Depth, true,
                  Held, Fn);
          I += 2;
          continue;
        }
        if (Name == "unlock" && punctIs(T, I + 2, ")")) {
          std::string Id = lockIdFor(receiverChain(I - 1), Fn);
          auto It = std::find_if(
              Held.begin(), Held.end(),
              [&Id](const HeldLock &H) { return H.Manual && H.Name == Id; });
          if (It != Held.end())
            Held.erase(It);
          I += 2;
          continue;
        }
        if (isGrowthMember(Name))
          Fn.Allocs.push_back({"container growth '" + Name + "'", Tok.Line,
                               Tok.Col, lineText(Tok.Line)});
        CallSite CS;
        CS.Name = Name;
        CS.IsMember = true;
        CS.Line = Tok.Line;
        CS.Col = Tok.Col;
        CS.HeldLocks = heldNames();
        if (!CS.HeldLocks.empty())
          CS.LineText = lineText(Tok.Line);
        Fn.Calls.push_back(std::move(CS));
        continue;
      }

      if (punctIs(T, I + 1, "(")) {
        if (isControlKw(Name) || Name == "operator")
          continue;
        std::string Qualifier;
        size_t Back = I;
        while (Back >= 2 && punctIs(T, Back - 1, "::") &&
               T[Back - 2].K == Token::Ident) {
          Qualifier = T[Back - 2].Text +
                      (Qualifier.empty() ? "" : "::" + Qualifier);
          Back -= 2;
        }
        if (Qualifier.empty() && Back > B) {
          const Token &Prev = T[Back - 1];
          if (Prev.K == Token::Ident && !precedesCall(Prev.Text))
            continue; // `Vec add(` — a declaration, not a call
          if (Prev.K == Token::Number || Prev.K == Token::String)
            continue;
        }
        if (isEntropyCallName(Name) &&
            (Qualifier.empty() || Qualifier == "std"))
          Fn.HasSource = true;
        if (isAllocCall(Name) && (Qualifier.empty() || Qualifier == "std"))
          Fn.Allocs.push_back({"heap allocation '" + Name + "'", Tok.Line,
                               Tok.Col, lineText(Tok.Line)});
        else if (isLinalgValueCall(Name) &&
                 (Qualifier.empty() || Qualifier.rfind("medley", 0) == 0))
          Fn.Allocs.push_back({"value-returning linalg '" + Name + "'",
                               Tok.Line, Tok.Col, lineText(Tok.Line)});
        CallSite CS;
        CS.Name = Name;
        CS.Qualifier = Qualifier;
        CS.Line = Tok.Line;
        CS.Col = Tok.Col;
        CS.HeldLocks = heldNames();
        if (!CS.HeldLocks.empty())
          CS.LineText = lineText(Tok.Line);
        Fn.Calls.push_back(std::move(CS));
        continue;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Statement pass: taint flows & sinks
  //===--------------------------------------------------------------------===//

  struct RhsInfo {
    std::vector<std::string> Vars;
    std::vector<std::string> Calls;
    bool HasSource = false;
  };

  RhsInfo scanRhs(size_t B, size_t E) const {
    RhsInfo Info;
    for (size_t I = B; I < E; ++I) {
      size_t SkipEnd = 0;
      if (skipAt(I, SkipEnd)) {
        I = SkipEnd - 1;
        continue;
      }
      const Token &Tok = T[I];
      if (Tok.K != Token::Ident)
        continue;
      const std::string &Name = Tok.Text;
      bool Member = I > B && T[I - 1].K == Token::Punct &&
                    (T[I - 1].Text == "." || T[I - 1].Text == "->");
      if (Name == "random_device" && !Member) {
        Info.HasSource = true;
        continue;
      }
      if (isClockName(Name) && punctIs(T, I + 1, "::") &&
          identIs(T, I + 2, "now")) {
        Info.HasSource = true;
        I += 2;
        continue;
      }
      if (punctIs(T, I + 1, "(")) {
        if (isControlKw(Name))
          continue;
        if (!Member && isEntropyCallName(Name)) {
          Info.HasSource = true;
          continue;
        }
        Info.Calls.push_back(Name);
        continue;
      }
      if (Member || punctIs(T, I + 1, "::"))
        continue; // field access or namespace qualifier
      if (Name == "true" || Name == "false" || Name == "nullptr" ||
          Name == "const" || Name == "auto" || isControlKw(Name))
        continue;
      Info.Vars.push_back(Name);
    }
    std::sort(Info.Vars.begin(), Info.Vars.end());
    Info.Vars.erase(std::unique(Info.Vars.begin(), Info.Vars.end()),
                    Info.Vars.end());
    std::sort(Info.Calls.begin(), Info.Calls.end());
    Info.Calls.erase(std::unique(Info.Calls.begin(), Info.Calls.end()),
                     Info.Calls.end());
    return Info;
  }

  void processStatement(size_t B, size_t E, FunctionInfo &Fn) {
    if (B >= E)
      return;

    if (identIs(T, B, "return")) {
      RhsInfo Info = scanRhs(B + 1, E);
      if (Info.HasSource || !Info.Vars.empty() || !Info.Calls.empty()) {
        Fn.Flows.push_back({"<return>", Info.Vars, Info.Calls, Info.HasSource,
                            T[B].Line});
        Fn.HasSource |= Info.HasSource;
      }
    } else {
      // First top-level assignment operator.
      static const std::array<const char *, 11> Assign = {
          "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
      int Depth = 0;
      size_t OpPos = E;
      for (size_t I = B; I < E; ++I) {
        if (T[I].K != Token::Punct)
          continue;
        const std::string &P = T[I].Text;
        if (P == "(" || P == "[" || P == "{")
          ++Depth;
        else if (P == ")" || P == "]" || P == "}")
          --Depth;
        else if (Depth == 0 && oneOf(P, Assign)) {
          OpPos = I;
          break;
        }
      }
      if (OpPos != E && OpPos > B) {
        // Chain base of the lhs: A.B[i] = ... taints A... no: taints the
        // written object; use the identifier nearest the operator, walked
        // back over subscripts and member accesses to the chain base.
        size_t K = OpPos;
        std::string Lhs;
        while (K > B) {
          const Token &P = T[K - 1];
          if (P.K == Token::Punct && P.Text == "]") {
            // skip backward over the subscript
            int D = 0;
            --K;
            while (K > B) {
              if (punctIs(T, K - 1, "]"))
                ++D;
              else if (punctIs(T, K - 1, "[")) {
                if (D == 0) {
                  --K;
                  break;
                }
                --D;
              }
              --K;
            }
            continue;
          }
          if (P.K == Token::Ident) {
            Lhs = P.Text;
            --K;
            if (K > B && T[K - 1].K == Token::Punct &&
                (T[K - 1].Text == "." || T[K - 1].Text == "->")) {
              --K;
              continue; // keep walking to the chain base
            }
            break;
          }
          break;
        }
        if (!Lhs.empty()) {
          RhsInfo Info = scanRhs(OpPos + 1, E);
          if (Info.HasSource || !Info.Vars.empty() || !Info.Calls.empty()) {
            Fn.Flows.push_back(
                {Lhs, Info.Vars, Info.Calls, Info.HasSource, T[OpPos].Line});
            Fn.HasSource |= Info.HasSource;
          }
        }
      }
    }

    // Seed-style sinks anywhere in the statement.
    for (size_t I = B; I < E; ++I) {
      size_t SkipEnd = 0;
      if (skipAt(I, SkipEnd)) {
        I = SkipEnd - 1;
        continue;
      }
      if (T[I].K != Token::Ident || !isSeedSink(T[I].Text))
        continue;
      size_t ArgsOpen = 0;
      if (punctIs(T, I + 1, "("))
        ArgsOpen = I + 1; // seed(x) / srand(x) / Rng(x) temporary
      else if (I + 2 < E && T[I + 1].K == Token::Ident &&
               punctIs(T, I + 2, "("))
        ArgsOpen = I + 2; // Rng R(x); — constructor with declarator
      if (!ArgsOpen)
        continue;
      size_t ArgsEnd = skipBalanced(T, ArgsOpen, "(", ")");
      if (ArgsEnd <= ArgsOpen + 2)
        continue; // no arguments — nothing can flow in
      RhsInfo Info = scanRhs(ArgsOpen + 1, ArgsEnd - 1);
      Fn.Sinks.push_back({T[I].Text, Info.Vars, Info.Calls, Info.HasSource,
                          T[I].Line, T[I].Col, lineText(T[I].Line)});
    }

    // Stream/trace output: `Stream << expr << ...` at statement level.
    if (T[B].K == Token::Ident && !isControlKw(T[B].Text)) {
      int Depth = 0;
      for (size_t I = B; I < E; ++I) {
        size_t SkipEnd = 0;
        if (skipAt(I, SkipEnd)) {
          I = SkipEnd - 1;
          continue;
        }
        if (T[I].K != Token::Punct)
          continue;
        const std::string &P = T[I].Text;
        if (P == "(" || P == "[" || P == "{")
          ++Depth;
        else if (P == ")" || P == "]" || P == "}")
          --Depth;
        else if (P == "<<" && Depth == 0) {
          RhsInfo Info = scanRhs(I + 1, E);
          Fn.Sinks.push_back({"stream output", Info.Vars, Info.Calls,
                              Info.HasSource, T[I].Line, T[I].Col,
                              lineText(T[I].Line)});
          break; // one sink per statement is enough
        }
      }
    }
  }

  void parseFlows(size_t B, size_t E, FunctionInfo &Fn) {
    int PDepth = 0;
    size_t S = B;
    for (size_t I = B; I < E; ++I) {
      size_t SkipEnd = 0;
      if (skipAt(I, SkipEnd)) {
        I = SkipEnd - 1; // balanced range: paren depth is unaffected
        continue;
      }
      if (T[I].K != Token::Punct)
        continue;
      const std::string &P = T[I].Text;
      if (P == "(" || P == "[")
        ++PDepth;
      else if (P == ")" || P == "]")
        --PDepth;
      else if (PDepth == 0 && (P == ";" || P == "{" || P == "}")) {
        processStatement(S, I, Fn);
        S = I + 1;
      }
    }
    processStatement(S, E, Fn);
  }
};

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string escField(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string unescField(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 >= S.size()) {
      Out += S[I];
      continue;
    }
    ++I;
    switch (S[I]) {
    case 't':
      Out += '\t';
      break;
    case 'n':
      Out += '\n';
      break;
    default:
      Out += S[I];
    }
  }
  return Out;
}

std::string joinList(const std::vector<std::string> &L) {
  std::string Out;
  for (size_t I = 0; I < L.size(); ++I)
    Out += (I ? "," : "") + L[I];
  return Out;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

void emitLine(std::ostringstream &OS, const std::vector<std::string> &Fields) {
  for (size_t I = 0; I < Fields.size(); ++I)
    OS << (I ? "\t" : "") << escField(Fields[I]);
  OS << "\n";
}

/// Reads one line from \p Data at \p Pos into tab-separated fields.
bool readLine(const std::string &Data, size_t &Pos,
              std::vector<std::string> &Fields) {
  if (Pos >= Data.size())
    return false;
  size_t End = Data.find('\n', Pos);
  if (End == std::string::npos)
    End = Data.size();
  Fields.clear();
  std::string Field;
  for (size_t I = Pos; I < End; ++I) {
    if (Data[I] == '\t') {
      Fields.push_back(unescField(Field));
      Field.clear();
    } else {
      Field += Data[I];
    }
  }
  Fields.push_back(unescField(Field));
  Pos = End + 1;
  return true;
}

bool toUnsigned(const std::string &S, unsigned &Out) {
  if (S.empty())
    return false;
  unsigned long V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<unsigned long>(C - '0');
    if (V > 0xffffffffUL)
      return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

} // namespace

std::string medley::lint::escapeTsvField(const std::string &S) {
  return escField(S);
}

void medley::lint::appendTsvLine(std::string &Out,
                                 const std::vector<std::string> &Fields) {
  std::ostringstream OS;
  emitLine(OS, Fields);
  Out += OS.str();
}

bool medley::lint::readTsvLine(const std::string &Data, size_t &Pos,
                               std::vector<std::string> &Fields) {
  return readLine(Data, Pos, Fields);
}

bool medley::lint::parseUnsignedField(const std::string &S, unsigned &Out) {
  return toUnsigned(S, Out);
}

FileIndex medley::lint::buildFileIndex(const std::string &Path,
                                       const std::string &Source,
                                       FileKind Kind) {
  FileIndex Out;
  Out.Path = Path;
  Out.Kind = Kind;
  LexedFile Lexed = lex(Source);
  Out.AllowLines = expandAllowCoverage(Lexed);

  std::vector<std::string> Lines;
  {
    std::string Line;
    for (char C : Source) {
      if (C == '\n') {
        Lines.push_back(Line);
        Line.clear();
      } else {
        Line += C;
      }
    }
    Lines.push_back(Line);
  }

  Indexer Ix(Lexed.Tokens, Lines, Out);
  Ix.run();
  return Out;
}

FileIndex medley::lint::buildFileIndex(const std::string &Path,
                                       const std::string &Source) {
  return buildFileIndex(Path, Source, classifyPath(Path));
}

std::string medley::lint::serializeFileIndex(const FileIndex &Index) {
  std::ostringstream OS;
  emitLine(OS, {"I", Index.Path, std::to_string(static_cast<int>(Index.Kind)),
                std::to_string(Index.Functions.size()),
                std::to_string(Index.AllowLines.size()),
                std::to_string(Index.Fields.size())});
  for (const auto &[Line, Rules] : Index.AllowLines)
    emitLine(OS, {"w", std::to_string(Line),
                  joinList({Rules.begin(), Rules.end()})});
  for (const FieldDecl &FD : Index.Fields)
    emitLine(OS, {"D", FD.Class, FD.Name, FD.Atomic ? "1" : "0",
                  FD.Mutex ? "1" : "0"});
  for (const FunctionInfo &Fn : Index.Functions) {
    emitLine(OS, {"N", Fn.Qual, Fn.Name, Fn.Class, std::to_string(Fn.Line),
                  std::to_string(Fn.Col), Fn.HasSource ? "1" : "0",
                  Fn.LineText, std::to_string(Fn.Calls.size()),
                  std::to_string(Fn.Allocs.size()),
                  std::to_string(Fn.Acquires.size()),
                  std::to_string(Fn.LockEdges.size()),
                  std::to_string(Fn.Flows.size()),
                  std::to_string(Fn.Sinks.size()),
                  Fn.IsThreadBody ? "1" : "0",
                  std::to_string(Fn.SpawnedBodies.size()),
                  std::to_string(Fn.Writes.size()),
                  std::to_string(Fn.Retentions.size()),
                  std::to_string(Fn.FlowCalls.size()),
                  std::to_string(Fn.ResetArenas.size())});
    for (const CallSite &C : Fn.Calls)
      emitLine(OS, {"c", C.Name, C.Qualifier, C.IsMember ? "1" : "0",
                    std::to_string(C.Line), std::to_string(C.Col),
                    joinList(C.HeldLocks), C.LineText});
    for (const AllocSite &A : Fn.Allocs)
      emitLine(OS, {"a", A.What, std::to_string(A.Line),
                    std::to_string(A.Col), A.LineText});
    for (const LockAcq &Q : Fn.Acquires)
      emitLine(OS, {"q", Q.Name, std::to_string(Q.Line)});
    for (const LockEdge &LE : Fn.LockEdges)
      emitLine(OS, {"e", LE.First, LE.Second, std::to_string(LE.Line),
                    LE.LineText});
    for (const TaintFlow &F : Fn.Flows)
      emitLine(OS, {"f", F.Lhs, joinList(F.RhsVars), joinList(F.RhsCalls),
                    F.HasSource ? "1" : "0", std::to_string(F.Line)});
    for (const SinkUse &S : Fn.Sinks)
      emitLine(OS, {"s", S.Sink, joinList(S.ArgVars), joinList(S.ArgCalls),
                    S.HasSource ? "1" : "0", std::to_string(S.Line),
                    std::to_string(S.Col), S.LineText});
    for (const std::string &SB : Fn.SpawnedBodies)
      emitLine(OS, {"b", SB});
    for (const UnguardedWrite &W : Fn.Writes)
      emitLine(OS, {"W", W.Lhs, W.Base, W.Last, std::to_string(W.Line),
                    std::to_string(W.Col), W.LineText});
    for (const RetentionSite &R : Fn.Retentions)
      emitLine(OS, {"R", std::to_string(R.K), R.Var, R.Origin, R.Base,
                    R.Last, R.Callee, R.CalleeQual,
                    R.CalleeMember ? "1" : "0", std::to_string(R.Line),
                    std::to_string(R.Col), R.LineText});
    for (const FlowCall &FC : Fn.FlowCalls)
      emitLine(OS, {"o", FC.Name, FC.Qualifier, FC.IsMember ? "1" : "0",
                    FC.LocalRecv ? "1" : "0", FC.LockFree ? "1" : "0",
                    std::to_string(FC.Line), std::to_string(FC.Col)});
    for (const std::string &Z : Fn.ResetArenas)
      emitLine(OS, {"Z", Z});
  }
  return OS.str();
}

bool medley::lint::deserializeFileIndex(const std::string &Data, size_t &Pos,
                                        FileIndex &Out) {
  std::vector<std::string> F;
  if (!readLine(Data, Pos, F) || F.size() != 6 || F[0] != "I")
    return false;
  Out = FileIndex();
  Out.Path = F[1];
  unsigned Kind = 0, NumFns = 0, NumAllow = 0, NumFields = 0;
  if (!toUnsigned(F[2], Kind) || Kind > static_cast<unsigned>(FileKind::Other))
    return false;
  Out.Kind = static_cast<FileKind>(Kind);
  if (!toUnsigned(F[3], NumFns) || !toUnsigned(F[4], NumAllow) ||
      !toUnsigned(F[5], NumFields))
    return false;
  for (unsigned I = 0; I < NumAllow; ++I) {
    unsigned Line = 0;
    if (!readLine(Data, Pos, F) || F.size() != 3 || F[0] != "w" ||
        !toUnsigned(F[1], Line))
      return false;
    std::vector<std::string> Rules = splitList(F[2]);
    Out.AllowLines[Line] = {Rules.begin(), Rules.end()};
  }
  for (unsigned I = 0; I < NumFields; ++I) {
    if (!readLine(Data, Pos, F) || F.size() != 5 || F[0] != "D")
      return false;
    FieldDecl FD;
    FD.Class = F[1];
    FD.Name = F[2];
    FD.Atomic = F[3] == "1";
    FD.Mutex = F[4] == "1";
    Out.Fields.push_back(std::move(FD));
  }
  for (unsigned I = 0; I < NumFns; ++I) {
    if (!readLine(Data, Pos, F) || F.size() != 20 || F[0] != "N")
      return false;
    FunctionInfo Fn;
    Fn.Qual = F[1];
    Fn.Name = F[2];
    Fn.Class = F[3];
    unsigned NC = 0, NA = 0, NQ = 0, NE = 0, NF = 0, NS = 0;
    unsigned NB = 0, NW = 0, NR = 0, NO = 0, NZ = 0;
    if (!toUnsigned(F[4], Fn.Line) || !toUnsigned(F[5], Fn.Col) ||
        !toUnsigned(F[8], NC) || !toUnsigned(F[9], NA) ||
        !toUnsigned(F[10], NQ) || !toUnsigned(F[11], NE) ||
        !toUnsigned(F[12], NF) || !toUnsigned(F[13], NS) ||
        !toUnsigned(F[15], NB) || !toUnsigned(F[16], NW) ||
        !toUnsigned(F[17], NR) || !toUnsigned(F[18], NO) ||
        !toUnsigned(F[19], NZ))
      return false;
    Fn.HasSource = F[6] == "1";
    Fn.LineText = F[7];
    Fn.IsThreadBody = F[14] == "1";
    for (unsigned J = 0; J < NC; ++J) {
      CallSite C;
      if (!readLine(Data, Pos, F) || F.size() != 8 || F[0] != "c" ||
          !toUnsigned(F[4], C.Line) || !toUnsigned(F[5], C.Col))
        return false;
      C.Name = F[1];
      C.Qualifier = F[2];
      C.IsMember = F[3] == "1";
      C.HeldLocks = splitList(F[6]);
      C.LineText = F[7];
      Fn.Calls.push_back(std::move(C));
    }
    for (unsigned J = 0; J < NA; ++J) {
      AllocSite A;
      if (!readLine(Data, Pos, F) || F.size() != 5 || F[0] != "a" ||
          !toUnsigned(F[2], A.Line) || !toUnsigned(F[3], A.Col))
        return false;
      A.What = F[1];
      A.LineText = F[4];
      Fn.Allocs.push_back(std::move(A));
    }
    for (unsigned J = 0; J < NQ; ++J) {
      LockAcq Q;
      if (!readLine(Data, Pos, F) || F.size() != 3 || F[0] != "q" ||
          !toUnsigned(F[2], Q.Line))
        return false;
      Q.Name = F[1];
      Fn.Acquires.push_back(std::move(Q));
    }
    for (unsigned J = 0; J < NE; ++J) {
      LockEdge LE;
      if (!readLine(Data, Pos, F) || F.size() != 5 || F[0] != "e" ||
          !toUnsigned(F[3], LE.Line))
        return false;
      LE.First = F[1];
      LE.Second = F[2];
      LE.LineText = F[4];
      Fn.LockEdges.push_back(std::move(LE));
    }
    for (unsigned J = 0; J < NF; ++J) {
      TaintFlow TF;
      if (!readLine(Data, Pos, F) || F.size() != 6 || F[0] != "f" ||
          !toUnsigned(F[5], TF.Line))
        return false;
      TF.Lhs = F[1];
      TF.RhsVars = splitList(F[2]);
      TF.RhsCalls = splitList(F[3]);
      TF.HasSource = F[4] == "1";
      Fn.Flows.push_back(std::move(TF));
    }
    for (unsigned J = 0; J < NS; ++J) {
      SinkUse S;
      if (!readLine(Data, Pos, F) || F.size() != 8 || F[0] != "s" ||
          !toUnsigned(F[5], S.Line) || !toUnsigned(F[6], S.Col))
        return false;
      S.Sink = F[1];
      S.ArgVars = splitList(F[2]);
      S.ArgCalls = splitList(F[3]);
      S.HasSource = F[4] == "1";
      S.LineText = F[7];
      Fn.Sinks.push_back(std::move(S));
    }
    for (unsigned J = 0; J < NB; ++J) {
      if (!readLine(Data, Pos, F) || F.size() != 2 || F[0] != "b")
        return false;
      Fn.SpawnedBodies.push_back(F[1]);
    }
    for (unsigned J = 0; J < NW; ++J) {
      UnguardedWrite W;
      if (!readLine(Data, Pos, F) || F.size() != 7 || F[0] != "W" ||
          !toUnsigned(F[4], W.Line) || !toUnsigned(F[5], W.Col))
        return false;
      W.Lhs = F[1];
      W.Base = F[2];
      W.Last = F[3];
      W.LineText = F[6];
      Fn.Writes.push_back(std::move(W));
    }
    for (unsigned J = 0; J < NR; ++J) {
      RetentionSite R;
      unsigned K = 0;
      if (!readLine(Data, Pos, F) || F.size() != 12 || F[0] != "R" ||
          !toUnsigned(F[1], K) || K > RetentionSite::AcrossCall ||
          !toUnsigned(F[9], R.Line) || !toUnsigned(F[10], R.Col))
        return false;
      R.K = static_cast<int>(K);
      R.Var = F[2];
      R.Origin = F[3];
      R.Base = F[4];
      R.Last = F[5];
      R.Callee = F[6];
      R.CalleeQual = F[7];
      R.CalleeMember = F[8] == "1";
      R.LineText = F[11];
      Fn.Retentions.push_back(std::move(R));
    }
    for (unsigned J = 0; J < NO; ++J) {
      FlowCall FC;
      if (!readLine(Data, Pos, F) || F.size() != 8 || F[0] != "o" ||
          !toUnsigned(F[6], FC.Line) || !toUnsigned(F[7], FC.Col))
        return false;
      FC.Name = F[1];
      FC.Qualifier = F[2];
      FC.IsMember = F[3] == "1";
      FC.LocalRecv = F[4] == "1";
      FC.LockFree = F[5] == "1";
      Fn.FlowCalls.push_back(std::move(FC));
    }
    for (unsigned J = 0; J < NZ; ++J) {
      if (!readLine(Data, Pos, F) || F.size() != 2 || F[0] != "Z")
        return false;
      Fn.ResetArenas.push_back(F[1]);
    }
    Out.Functions.push_back(std::move(Fn));
  }
  return true;
}
