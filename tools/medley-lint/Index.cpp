//===-- tools/medley-lint/Index.cpp - Per-file lock index ----------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heuristic single-pass C++ reader producing the FileIndex: a scope
/// walk (namespaces, classes) that recognizes function definitions, and
/// per body a linear scan for call and lock sites. No AST, no
/// preprocessor: what the token stream cannot express (templated call
/// names, macro expansion) is under-approximated, never guessed.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Index.h"
#include "medley-lint/Internal.h"

#include <algorithm>
#include <array>

using namespace medley::lint;

namespace {

using Tokens = std::vector<Token>;

bool punctIs(const Tokens &T, size_t I, const char *Text) {
  return I < T.size() && T[I].K == Token::Punct && T[I].Text == Text;
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

/// Calls that move a lambda argument onto another thread: the lambda's
/// body becomes a function node of its own that starts with no lock held.
bool isSpawnCall(const std::string &S) {
  static const std::array<const char *, 5> K = {
      "parallelFor", "submit", "async", "thread", "emplace_back"};
  return oneOf(S, K);
}

/// The indexer proper: one instance per file.
class Indexer {
public:
  Indexer(const Tokens &Toks, FileIndex &Out) : T(Toks), Out(Out) {}

  void run() {
    std::vector<std::string> Ns, Cls;
    parseScope(0, T.size(), Ns, Cls);
  }

private:
  const Tokens &T;
  FileIndex &Out;
  /// Token ranges of task lambdas extracted from the function currently
  /// being scanned; the body scan skips them so their events are
  /// attributed to the lambda's own node, not the spawner.
  std::vector<std::pair<size_t, size_t>> CurSkips;

  bool skipAt(size_t I, size_t &End) const {
    for (const std::pair<size_t, size_t> &R : CurSkips)
      if (I >= R.first && I < R.second) {
        End = R.second;
        return true;
      }
    return false;
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
      ++I;
    }
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
        finishFunction(std::move(Fn), J + 1,
                       BodyEnd > 0 ? BodyEnd - 1 : BodyEnd, 0);
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
  // Spawned task lambdas
  //===--------------------------------------------------------------------===//

  /// A lambda argument of a spawn call inside a function body.
  struct LambdaSpec {
    size_t Begin = 0, End = 0;   ///< Full `[..](..){..}` token range.
    size_t BodyB = 0, BodyE = 0; ///< Body range (inside braces).
    unsigned Line = 0, Col = 0;
  };

  /// Finds lambdas passed to ThreadPool-style spawn calls inside
  /// [B, E). Each becomes a function of its own.
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
    size_t P = CapEnd;
    if (punctIs(T, P, "("))
      P = skipBalanced(T, P, "(", ")");
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

  /// Scans one body for calls and locks, skipping the task lambdas it
  /// spawns, then indexes each of those lambdas as a function of its own.
  void finishFunction(FunctionInfo Fn, size_t BodyB, size_t BodyE,
                      int Depth) {
    std::vector<LambdaSpec> Lambdas;
    if (Depth < 4)
      findSpawnLambdas(BodyB, BodyE, Lambdas);

    std::vector<std::pair<size_t, size_t>> SavedSkips = std::move(CurSkips);
    CurSkips.clear();
    for (const LambdaSpec &L : Lambdas)
      CurSkips.push_back({L.Begin, L.End});
    parseBody(BodyB, BodyE, Fn);
    CurSkips = std::move(SavedSkips);

    for (const LambdaSpec &L : Lambdas) {
      FunctionInfo LFn;
      LFn.Name = "<lambda:" + std::to_string(L.Line) + ":" +
                 std::to_string(L.Col) + ">";
      LFn.Qual = Fn.Qual + "::" + LFn.Name;
      LFn.Class = Fn.Class;
      Fn.SpawnedBodies.push_back(LFn.Qual);
      finishFunction(std::move(LFn), L.BodyB, L.BodyE, Depth + 1);
    }
    Out.Functions.push_back(std::move(Fn));
  }

  //===--------------------------------------------------------------------===//
  // Body scan: calls and locks
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
        Fn.LockEdges.push_back({H.Name, Id, Line});
    Fn.Acquires.push_back(Id);
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
        CallSite CS;
        CS.Name = Name;
        CS.IsMember = true;
        CS.Line = Tok.Line;
        CS.Col = Tok.Col;
        CS.HeldLocks = heldNames();
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
        CallSite CS;
        CS.Name = Name;
        CS.Qualifier = Qualifier;
        CS.Line = Tok.Line;
        CS.Col = Tok.Col;
        CS.HeldLocks = heldNames();
        Fn.Calls.push_back(std::move(CS));
        continue;
      }
    }
  }
};

} // namespace

FileIndex medley::lint::buildFileIndex(const std::string &Path,
                                       const std::string &Source) {
  FileIndex Out;
  Out.Path = Path;
  LexedFile Lexed = lex(Source);
  Out.AllowLines = expandAllowCoverage(Lexed);
  Indexer Ix(Lexed.Tokens, Out);
  Ix.run();
  return Out;
}
