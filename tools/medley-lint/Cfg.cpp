//===-- tools/medley-lint/Cfg.cpp - Per-function CFG builder -------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the statement-level CFG (DESIGN.md §15). The builder walks a
/// function body's token range recognizing `if`/`else`, the three loop
/// forms, `switch` (with fallthrough), `try`/`catch`, and the jump
/// statements; everything else is a simple statement whose dataflow
/// events (guard construction, local defs/uses, non-local writes,
/// calls, arena resets) are emitted into the current block in token
/// order. Like the indexer it is a heuristic reader: what it cannot
/// model degrades to straight-line code, never a crash.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Cfg.h"
#include "medley-lint/Internal.h"

#include <algorithm>
#include <array>
#include <set>

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

bool isControlKw(const std::string &S) {
  static const std::array<const char *, 24> Kw = {
      "if",       "for",          "while",     "switch",   "catch",
      "return",   "sizeof",       "alignof",   "alignas",  "decltype",
      "new",      "delete",       "throw",     "else",     "do",
      "case",     "goto",         "template",  "typename", "using",
      "typedef",  "static_assert","noexcept",  "requires"};
  return oneOf(S, Kw);
}

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

bool isAssignOp(const std::string &P) {
  static const std::array<const char *, 11> Ops = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  return oneOf(P, Ops);
}

/// Operators that make an expression a boolean/comparison computation:
/// its value is not a stored pointer, so no alias candidates survive.
bool isCompareOp(const std::string &P) {
  static const std::array<const char *, 9> Ops = {"==", "!=", "<=", ">=", "<",
                                                  ">",  "&&", "||", "!"};
  return oneOf(P, Ops);
}

/// Nesting beyond this degrades to straight-line event emission.
constexpr int MaxNest = 64;

/// The builder proper: one instance per function body.
class Builder {
public:
  explicit Builder(const CfgBuildContext &Ctx)
      : Ctx(Ctx), T(*Ctx.Toks), Lines(*Ctx.Lines) {}

  FunctionCfg build(size_t B, size_t E) {
    G.Blocks.emplace_back(); // 0: entry
    G.Blocks.emplace_back(); // 1: exit
    for (const std::string &L : Ctx.SeedLocals)
      Locals.insert(L);
    Cur = newBlock();
    link(G.Entry, Cur);
    GuardScopes.emplace_back();
    walkRange(B, E, 0);
    closeGuardScope();
    link(Cur, G.Exit);
    finalize();
    return std::move(G);
  }

private:
  const CfgBuildContext &Ctx;
  const Tokens &T;
  const std::vector<std::string> &Lines;
  FunctionCfg G;
  unsigned Cur = 0;
  std::set<std::string> Locals;
  std::vector<unsigned> Breaks, Conts;
  std::vector<std::vector<std::string>> GuardScopes;

  //===--------------------------------------------------------------------===//
  // Graph plumbing
  //===--------------------------------------------------------------------===//

  unsigned newBlock() {
    G.Blocks.emplace_back();
    return static_cast<unsigned>(G.Blocks.size() - 1);
  }

  void link(unsigned From, unsigned To) { G.Blocks[From].Succs.push_back(To); }

  void finalize() {
    for (CfgBlock &B : G.Blocks) {
      std::sort(B.Succs.begin(), B.Succs.end());
      B.Succs.erase(std::unique(B.Succs.begin(), B.Succs.end()),
                    B.Succs.end());
    }
    for (unsigned B = 0; B < G.Blocks.size(); ++B)
      for (unsigned S : G.Blocks[B].Succs)
        G.Blocks[S].Preds.push_back(B);
  }

  void push(CfgStmt S) { G.Blocks[Cur].Stmts.push_back(std::move(S)); }

  void fillPos(CfgStmt &S, size_t TokIdx) const {
    if (TokIdx >= T.size())
      return;
    S.Line = T[TokIdx].Line;
    S.Col = T[TokIdx].Col;
    if (S.Line >= 1 && S.Line <= Lines.size())
      S.LineText = trim(Lines[S.Line - 1]);
  }

  //===--------------------------------------------------------------------===//
  // Small text helpers (mirror the indexer's conventions)
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

  /// Same normalization as the indexer's lockIdFor, so CFG lock/arena
  /// ids agree with the scope-based summaries.
  std::string lockId(std::string Expr) const {
    while (!Expr.empty() && (Expr[0] == '&' || Expr[0] == '*'))
      Expr.erase(Expr.begin());
    bool Simple = Expr.find("::") == std::string::npos &&
                  Expr.find('.') == std::string::npos &&
                  Expr.find("->") == std::string::npos;
    if (Simple && !Ctx.ClassName.empty())
      return Ctx.ClassName + "::" + Expr;
    return Expr;
  }

  static std::string chainBase(const std::string &Chain) {
    for (size_t I = 0; I < Chain.size(); ++I)
      if (Chain[I] == '.' || Chain[I] == '-' || Chain[I] == ':')
        return Chain.substr(0, I);
    return Chain;
  }

  std::vector<std::string> splitArgs(size_t B, size_t E) const {
    std::vector<std::string> Args;
    std::string CurArg;
    int Depth = 0;
    for (size_t I = B; I < E; ++I) {
      const Token &Tok = T[I];
      if (Tok.K == Token::Punct) {
        if (Tok.Text == "(" || Tok.Text == "{" || Tok.Text == "[")
          ++Depth;
        else if (Tok.Text == ")" || Tok.Text == "}" || Tok.Text == "]")
          --Depth;
        else if (Tok.Text == "," && Depth == 0) {
          if (!CurArg.empty())
            Args.push_back(CurArg);
          CurArg.clear();
          continue;
        }
      }
      CurArg += Tok.Text;
    }
    if (!CurArg.empty())
      Args.push_back(CurArg);
    return Args;
  }

  bool inSkipRange(size_t I, size_t &End) const {
    for (const std::pair<size_t, size_t> &R : Ctx.SkipRanges)
      if (I >= R.first && I < R.second) {
        End = R.second;
        return true;
      }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Structure walk
  //===--------------------------------------------------------------------===//

  void walkRange(size_t B, size_t E, int Depth) {
    size_t I = B;
    while (I < E) {
      size_t Next = walkConstruct(I, E, Depth);
      I = Next > I ? Next : I + 1;
    }
  }

  size_t walkConstruct(size_t I, size_t E, int Depth) {
    size_t SkipEnd = 0;
    if (inSkipRange(I, SkipEnd))
      return SkipEnd;
    const Token &Tok = T[I];
    if (Tok.K == Token::Punct) {
      if (Tok.Text == ";")
        return I + 1;
      if (Tok.Text == "{") {
        size_t End = skipBalanced(T, I, "{", "}");
        size_t InnerE = End > I + 1 ? End - 1 : I + 1;
        if (Depth < MaxNest)
          walkScope(I + 1, InnerE, Depth + 1);
        else
          scanEvents(I + 1, InnerE);
        return End;
      }
    }
    if (Tok.K == Token::Ident && Depth < MaxNest) {
      const std::string &S = Tok.Text;
      if (S == "if")
        return walkIf(I, E, Depth);
      if (S == "while")
        return walkWhile(I, E, Depth);
      if (S == "for")
        return walkFor(I, E, Depth);
      if (S == "do")
        return walkDo(I, E, Depth);
      if (S == "switch")
        return walkSwitch(I, E, Depth);
      if (S == "try")
        return I + 1; // the following block walks as a plain scope
      if (S == "catch")
        return walkCatch(I, E, Depth);
      if (S == "return" || S == "co_return") {
        size_t Semi = stmtEnd(I + 1, E);
        emitReturn(I, I + 1, Semi);
        link(Cur, G.Exit);
        Cur = newBlock();
        return Semi < E ? Semi + 1 : E;
      }
      if (S == "break" || S == "continue") {
        const std::vector<unsigned> &Stack = S == "break" ? Breaks : Conts;
        if (!Stack.empty())
          link(Cur, Stack.back());
        Cur = newBlock();
        size_t Semi = stmtEnd(I + 1, E);
        return Semi < E ? Semi + 1 : E;
      }
      if (S == "goto") {
        // An opaque jump: conservatively route to the exit.
        link(Cur, G.Exit);
        Cur = newBlock();
        size_t Semi = stmtEnd(I + 1, E);
        return Semi < E ? Semi + 1 : E;
      }
    }
    size_t Semi = stmtEnd(I, E);
    emitStmt(I, Semi);
    return Semi < E ? Semi + 1 : E;
  }

  /// Index of the statement-terminating ';' at paren/bracket/brace
  /// depth 0 (lambdas and braced initializers stay inside one
  /// statement), or \p E.
  size_t stmtEnd(size_t I, size_t E) const {
    int D = 0;
    for (size_t J = I; J < E; ++J) {
      if (T[J].K != Token::Punct)
        continue;
      const std::string &P = T[J].Text;
      if (P == "(" || P == "[" || P == "{")
        ++D;
      else if (P == ")" || P == "]" || P == "}") {
        if (D == 0)
          return J;
        --D;
      } else if (P == ";" && D == 0)
        return J;
    }
    return E;
  }

  void walkScope(size_t B, size_t E, int Depth) {
    GuardScopes.emplace_back();
    walkRange(B, E, Depth);
    closeGuardScope();
  }

  void closeGuardScope() {
    std::vector<std::string> &Scope = GuardScopes.back();
    for (size_t I = Scope.size(); I-- > 0;) {
      CfgStmt S;
      S.K = CfgStmt::Release;
      S.Id = Scope[I];
      push(std::move(S));
    }
    GuardScopes.pop_back();
  }

  /// A loop/branch body: either a braced scope or a single construct.
  size_t walkStmtOrBlock(size_t I, size_t E, int Depth) {
    if (I >= E)
      return I;
    if (punctIs(T, I, "{")) {
      size_t End = skipBalanced(T, I, "{", "}");
      size_t InnerE = End > I + 1 ? End - 1 : I + 1;
      if (Depth < MaxNest)
        walkScope(I + 1, InnerE, Depth + 1);
      else
        scanEvents(I + 1, InnerE);
      return End;
    }
    return walkConstruct(I, E, Depth + 1);
  }

  size_t walkIf(size_t I, size_t E, int Depth) {
    size_t J = I + 1;
    if (identIs(T, J, "constexpr"))
      ++J;
    if (!punctIs(T, J, "(")) {
      size_t Semi = stmtEnd(I + 1, E);
      return Semi < E ? Semi + 1 : E;
    }
    size_t CondEnd = skipBalanced(T, J, "(", ")");
    emitStmt(J + 1, CondEnd > J + 1 ? CondEnd - 1 : J + 1);
    unsigned CondB = Cur;
    unsigned ThenB = newBlock();
    link(CondB, ThenB);
    Cur = ThenB;
    size_t AfterThen = walkStmtOrBlock(CondEnd, E, Depth);
    unsigned ThenEnd = Cur;
    if (identIs(T, AfterThen, "else")) {
      unsigned ElseB = newBlock();
      link(CondB, ElseB);
      Cur = ElseB;
      size_t AfterElse = walkStmtOrBlock(AfterThen + 1, E, Depth);
      unsigned After = newBlock();
      link(ThenEnd, After);
      link(Cur, After);
      Cur = After;
      return AfterElse;
    }
    unsigned After = newBlock();
    link(ThenEnd, After);
    link(CondB, After);
    Cur = After;
    return AfterThen;
  }

  size_t walkWhile(size_t I, size_t E, int Depth) {
    size_t J = I + 1;
    if (!punctIs(T, J, "(")) {
      size_t Semi = stmtEnd(I + 1, E);
      return Semi < E ? Semi + 1 : E;
    }
    size_t CondEnd = skipBalanced(T, J, "(", ")");
    unsigned Header = newBlock();
    link(Cur, Header);
    Cur = Header;
    emitStmt(J + 1, CondEnd > J + 1 ? CondEnd - 1 : J + 1);
    unsigned Body = newBlock(), After = newBlock();
    link(Header, Body);
    link(Header, After);
    Breaks.push_back(After);
    Conts.push_back(Header);
    Cur = Body;
    size_t End = walkStmtOrBlock(CondEnd, E, Depth);
    link(Cur, Header);
    Breaks.pop_back();
    Conts.pop_back();
    Cur = After;
    return End;
  }

  size_t walkFor(size_t I, size_t E, int Depth) {
    size_t J = I + 1;
    if (!punctIs(T, J, "(")) {
      size_t Semi = stmtEnd(I + 1, E);
      return Semi < E ? Semi + 1 : E;
    }
    size_t ParenEnd = skipBalanced(T, J, "(", ")"); // one past ')'
    size_t PB = J + 1, PE = ParenEnd > J + 1 ? ParenEnd - 1 : J + 1;

    // Range-for: a top-level ':' inside the parens ('::' is one token).
    size_t ColonPos = PE;
    {
      int D = 0;
      for (size_t K = PB; K < PE; ++K) {
        if (T[K].K != Token::Punct)
          continue;
        const std::string &P = T[K].Text;
        if (P == "(" || P == "[" || P == "{")
          ++D;
        else if (P == ")" || P == "]" || P == "}")
          --D;
        else if (P == ":" && D == 0) {
          ColonPos = K;
          break;
        }
      }
    }

    unsigned Header, Body, After;
    if (ColonPos < PE) {
      Header = newBlock();
      link(Cur, Header);
      Cur = Header;
      scanEvents(ColonPos + 1, PE);
      std::string Var;
      size_t VarPos = ColonPos;
      for (size_t K = ColonPos; K-- > PB;)
        if (T[K].K == Token::Ident) {
          Var = T[K].Text;
          VarPos = K;
          break;
        }
      if (!Var.empty()) {
        Locals.insert(Var);
        CfgStmt S;
        S.K = CfgStmt::Def;
        S.Id = Var;
        S.Origin = originOf(ColonPos + 1, PE);
        fillPos(S, VarPos);
        push(std::move(S));
      }
    } else {
      // Classic for: split at the two top-level ';'.
      size_t Semi1 = PE, Semi2 = PE;
      int D = 0;
      for (size_t K = PB; K < PE; ++K) {
        if (T[K].K != Token::Punct)
          continue;
        const std::string &P = T[K].Text;
        if (P == "(" || P == "[" || P == "{")
          ++D;
        else if (P == ")" || P == "]" || P == "}")
          --D;
        else if (P == ";" && D == 0) {
          if (Semi1 == PE)
            Semi1 = K;
          else if (Semi2 == PE) {
            Semi2 = K;
            break;
          }
        }
      }
      if (Semi1 < PE)
        emitStmt(PB, Semi1); // init, in the pre-header block
      Header = newBlock();
      link(Cur, Header);
      Cur = Header;
      if (Semi2 > Semi1 && Semi1 < PE)
        emitStmt(Semi1 + 1, Semi2 < PE ? Semi2 : PE);
      // Increment events are emitted at the body's exit, before the
      // back edge; `continue` jumps to the header and skips them — an
      // accepted approximation.
      Body = newBlock();
      After = newBlock();
      link(Header, Body);
      link(Header, After);
      Breaks.push_back(After);
      Conts.push_back(Header);
      Cur = Body;
      size_t End = walkStmtOrBlock(ParenEnd, E, Depth);
      if (Semi2 < PE && Semi2 + 1 < PE)
        emitStmt(Semi2 + 1, PE);
      link(Cur, Header);
      Breaks.pop_back();
      Conts.pop_back();
      Cur = After;
      return End;
    }

    Body = newBlock();
    After = newBlock();
    link(Header, Body);
    link(Header, After);
    Breaks.push_back(After);
    Conts.push_back(Header);
    Cur = Body;
    size_t End = walkStmtOrBlock(ParenEnd, E, Depth);
    link(Cur, Header);
    Breaks.pop_back();
    Conts.pop_back();
    Cur = After;
    return End;
  }

  size_t walkDo(size_t I, size_t E, int Depth) {
    unsigned Body = newBlock();
    link(Cur, Body);
    unsigned CondB = newBlock(), After = newBlock();
    Breaks.push_back(After);
    Conts.push_back(CondB);
    Cur = Body;
    size_t AfterBody = walkStmtOrBlock(I + 1, E, Depth);
    link(Cur, CondB);
    Breaks.pop_back();
    Conts.pop_back();
    Cur = CondB;
    if (identIs(T, AfterBody, "while") && punctIs(T, AfterBody + 1, "(")) {
      size_t CondEnd = skipBalanced(T, AfterBody + 1, "(", ")");
      emitStmt(AfterBody + 2, CondEnd > AfterBody + 2 ? CondEnd - 1
                                                      : AfterBody + 2);
      link(CondB, Body);
      link(CondB, After);
      Cur = After;
      return punctIs(T, CondEnd, ";") ? CondEnd + 1 : CondEnd;
    }
    link(CondB, After);
    Cur = After;
    return AfterBody;
  }

  size_t walkSwitch(size_t I, size_t E, int Depth) {
    size_t J = I + 1;
    if (!punctIs(T, J, "(")) {
      size_t Semi = stmtEnd(I + 1, E);
      return Semi < E ? Semi + 1 : E;
    }
    size_t CondEnd = skipBalanced(T, J, "(", ")");
    emitStmt(J + 1, CondEnd > J + 1 ? CondEnd - 1 : J + 1);
    unsigned Head = Cur;
    if (!punctIs(T, CondEnd, "{"))
      return CondEnd;
    size_t BodyEnd = skipBalanced(T, CondEnd, "{", "}");
    size_t BB = CondEnd + 1, BE = BodyEnd > CondEnd + 1 ? BodyEnd - 1 : BB;
    unsigned After = newBlock();
    Breaks.push_back(After);

    // Label positions at brace/paren depth 0: (label token, content start).
    std::vector<std::pair<size_t, size_t>> Labels;
    {
      int D = 0;
      for (size_t K = BB; K < BE; ++K) {
        if (T[K].K == Token::Punct) {
          const std::string &P = T[K].Text;
          if (P == "(" || P == "[" || P == "{")
            ++D;
          else if (P == ")" || P == "]" || P == "}")
            --D;
          continue;
        }
        if (D != 0 || T[K].K != Token::Ident ||
            (T[K].Text != "case" && T[K].Text != "default"))
          continue;
        size_t C = K + 1;
        int D2 = 0;
        while (C < BE) {
          if (T[C].K == Token::Punct) {
            const std::string &P = T[C].Text;
            if (P == "(" || P == "[" || P == "{")
              ++D2;
            else if (P == ")" || P == "]" || P == "}")
              --D2;
            else if (P == ":" && D2 == 0)
              break;
          }
          ++C;
        }
        Labels.push_back({K, C < BE ? C + 1 : K + 1});
        K = C < BE ? C : K;
      }
    }

    if (Labels.empty()) {
      // Degenerate: no labels, treat the body as a conditional region.
      unsigned Seg = newBlock();
      link(Head, Seg);
      Cur = Seg;
      walkRange(BB, BE, Depth + 1);
      link(Cur, After);
    } else {
      Cur = newBlock(); // unreachable pre-label code, if any
      if (Labels.front().first > BB)
        walkRange(BB, Labels.front().first, Depth + 1);
      for (size_t L = 0; L < Labels.size(); ++L) {
        unsigned Seg = newBlock();
        link(Head, Seg);
        link(Cur, Seg); // fallthrough from the previous segment
        Cur = Seg;
        size_t SegEnd = L + 1 < Labels.size() ? Labels[L + 1].first : BE;
        walkRange(Labels[L].second, SegEnd, Depth + 1);
      }
      link(Cur, After);
    }
    link(Head, After); // no matching label / no default
    Breaks.pop_back();
    Cur = After;
    return BodyEnd;
  }

  size_t walkCatch(size_t I, size_t E, int Depth) {
    size_t J = I + 1;
    if (!punctIs(T, J, "("))
      return I + 1;
    size_t ParenEnd = skipBalanced(T, J, "(", ")");
    for (size_t K = ParenEnd > J + 1 ? ParenEnd - 1 : J + 1; K-- > J + 1;)
      if (T[K].K == Token::Ident) {
        Locals.insert(T[K].Text);
        break;
      }
    unsigned Pre = Cur;
    unsigned Handler = newBlock();
    link(Pre, Handler);
    Cur = Handler;
    size_t End = walkStmtOrBlock(ParenEnd, E, Depth);
    unsigned Merge = newBlock();
    link(Cur, Merge);
    link(Pre, Merge);
    Cur = Merge;
    return End;
  }

  //===--------------------------------------------------------------------===//
  // Statement emission
  //===--------------------------------------------------------------------===//

  /// The backward-parsed lvalue chain to the left of an assignment.
  struct LhsChain {
    std::vector<std::string> Comps; ///< Base-first components.
    std::vector<std::string> Seps;  ///< "." / "->" between components.
    bool Deref = false;             ///< Leading '*'.
    bool Subscript = false;         ///< Any `[...]` in the chain.
    size_t StartTok = 0;            ///< Token index of the base component.
    bool Valid = false;
  };

  LhsChain parseLhsChain(size_t B, size_t AssignPos) const {
    LhsChain C;
    std::vector<std::string> RevComps, RevSeps;
    size_t K = AssignPos;
    bool Ok = true;
    while (true) {
      while (K > B && punctIs(T, K - 1, "]")) {
        int D = 0;
        size_t M = K;
        bool Found = false;
        while (M > B) {
          --M;
          if (punctIs(T, M, "]"))
            ++D;
          else if (punctIs(T, M, "[") && --D == 0) {
            Found = true;
            break;
          }
        }
        if (!Found) {
          Ok = false;
          break;
        }
        C.Subscript = true;
        K = M;
      }
      if (!Ok)
        break;
      if (K > B && T[K - 1].K == Token::Ident) {
        RevComps.push_back(T[K - 1].Text);
        --K;
      } else {
        if (RevComps.empty())
          Ok = false;
        break;
      }
      if (K > B && (punctIs(T, K - 1, ".") || punctIs(T, K - 1, "->"))) {
        RevSeps.push_back(T[K - 1].Text);
        --K;
        continue;
      }
      break;
    }
    if (!Ok || RevComps.empty())
      return C;
    C.Comps.assign(RevComps.rbegin(), RevComps.rend());
    C.Seps.assign(RevSeps.rbegin(), RevSeps.rend());
    C.StartTok = K;
    C.Deref = K > B && punctIs(T, K - 1, "*");
    C.Valid = true;
    return C;
  }

  std::string chainText(const LhsChain &C) const {
    std::string Out = C.Comps.front();
    for (size_t I = 0; I + 1 < C.Comps.size(); ++I)
      Out += C.Seps[I] + C.Comps[I + 1];
    return Out;
  }

  /// True when [B, K) reads as a type prefix (a declaration), i.e. it
  /// contains at least one identifier token.
  bool looksLikeTypePrefix(size_t B, size_t K) const {
    for (size_t I = B; I < K; ++I)
      if (T[I].K == Token::Ident)
        return true;
    return false;
  }

  size_t findAssign(size_t B, size_t E) const {
    int D = 0;
    for (size_t J = B; J < E; ++J) {
      if (T[J].K != Token::Punct)
        continue;
      const std::string &P = T[J].Text;
      if (P == "(" || P == "[" || P == "{")
        ++D;
      else if (P == ")" || P == "]" || P == "}")
        --D;
      else if (D == 0 && isAssignOp(P))
        return J;
    }
    return E;
  }

  /// Emits one simple statement's events into the current block:
  /// scan-order uses/calls/locks first, then the defining Def/Write.
  void emitStmt(size_t B, size_t E) {
    while (B < E && punctIs(T, B, ";"))
      ++B;
    if (B >= E)
      return;
    if (identIs(T, B, "return")) {
      emitReturn(B, B + 1, E);
      link(Cur, G.Exit);
      Cur = newBlock();
      return;
    }
    if (tryGuardDecl(B, E))
      return;

    size_t AssignPos = findAssign(B, E);
    if (AssignPos >= E) {
      scanEvents(B, E);
      findPlainDecl(B, E);
      return;
    }

    LhsChain C = parseLhsChain(B, AssignPos);
    if (!C.Valid) {
      scanEvents(B, E);
      return;
    }
    bool Compound = !punctIs(T, AssignPos, "=");
    bool IsDecl = C.Comps.size() == 1 && !C.Subscript &&
                  looksLikeTypePrefix(B, C.StartTok);
    bool LocalBase = Locals.count(C.Comps.front()) > 0;

    if (C.Comps.size() == 1 && C.Comps.front() == "auto" && C.Subscript) {
      // Structured binding `auto [A, B] = rhs;` — every bound name is a
      // fresh local; none of them is a field/global write.
      scanEvents(AssignPos + 1, E);
      std::vector<std::string> Aliases = aliasCandidates(AssignPos + 1, E);
      std::string Origin = originOf(AssignPos + 1, E);
      for (size_t I = C.StartTok; I + 1 < AssignPos; ++I) {
        if (!punctIs(T, I, "["))
          continue;
        for (size_t J = I + 1; J < AssignPos && !punctIs(T, J, "]"); ++J)
          if (T[J].K == Token::Ident) {
            Locals.insert(T[J].Text);
            CfgStmt S;
            S.K = CfgStmt::Def;
            S.Id = T[J].Text;
            S.Origin = Origin;
            S.Aliases = Aliases;
            fillPos(S, J);
            push(std::move(S));
          }
        break;
      }
      return;
    }

    if (IsDecl) {
      // `Type Name = rhs;` — the prefix and name are not uses.
      scanEvents(AssignPos + 1, E);
      Locals.insert(C.Comps.front());
      CfgStmt S;
      S.K = CfgStmt::Def;
      S.Id = C.Comps.front();
      S.Origin = originOf(AssignPos + 1, E);
      S.Aliases = aliasCandidates(AssignPos + 1, E);
      fillPos(S, C.StartTok);
      push(std::move(S));
      return;
    }

    if (LocalBase && C.Comps.size() == 1 && !C.Subscript && !C.Deref) {
      // Local rebind. A pure `=` kills the old value, so the name on
      // the left is not a use; compound forms read it first.
      if (Compound)
        scanEvents(B, E);
      else
        scanEvents(B, E, C.StartTok, AssignPos);
      CfgStmt S;
      S.K = CfgStmt::Def;
      S.Id = C.Comps.front();
      S.Origin = originOf(AssignPos + 1, E);
      S.Aliases = aliasCandidates(AssignPos + 1, E);
      if (Compound)
        S.Aliases.push_back(S.Id); // pointer arithmetic keeps the origin
      std::sort(S.Aliases.begin(), S.Aliases.end());
      S.Aliases.erase(std::unique(S.Aliases.begin(), S.Aliases.end()),
                      S.Aliases.end());
      fillPos(S, C.StartTok);
      push(std::move(S));
      return;
    }

    scanEvents(B, E);
    if (!LocalBase && !C.Deref) {
      // A write through a field/global candidate lvalue.
      CfgStmt S;
      S.K = CfgStmt::Write;
      S.Id = chainText(C);
      S.Base = C.Comps.size() > 1 ? C.Comps.front() : "";
      S.Last = C.Comps.back();
      S.Aliases = aliasCandidates(AssignPos + 1, E);
      fillPos(S, C.StartTok);
      push(std::move(S));
    }
  }

  /// `std::lock_guard<std::mutex> G(Mu);` and friends: declares the
  /// guard local, acquires its lock(s), registers scope-end release.
  bool tryGuardDecl(size_t B, size_t E) {
    size_t I = B;
    while (I + 1 < E && T[I].K == Token::Ident && punctIs(T, I + 1, "::"))
      I += 2;
    if (I >= E || T[I].K != Token::Ident || !isGuardType(T[I].Text))
      return false;
    bool Scoped = T[I].Text == "scoped_lock";
    size_t J = I + 1;
    if (punctIs(T, J, "<"))
      J = skipTemplateArgs(T, J);
    if (J >= E || T[J].K != Token::Ident)
      return false;
    std::string Var = T[J].Text;
    size_t Open = J + 1;
    bool Paren = punctIs(T, Open, "(");
    if (!Paren && !punctIs(T, Open, "{"))
      return false;
    size_t ArgsEnd = Paren ? skipBalanced(T, Open, "(", ")")
                           : skipBalanced(T, Open, "{", "}");
    Locals.insert(Var);
    std::vector<std::string> Args =
        splitArgs(Open + 1, ArgsEnd > Open + 1 ? ArgsEnd - 1 : Open + 1);
    std::vector<std::string> LockArgs;
    for (const std::string &A : Args) {
      if (A.find("defer_lock") != std::string::npos)
        return true; // declared unlocked; a later .lock() acquires
      if (A.find("adopt_lock") != std::string::npos ||
          A.find("try_to_lock") != std::string::npos)
        continue;
      LockArgs.push_back(A);
    }
    if (!Scoped && LockArgs.size() > 1)
      LockArgs.resize(1);
    for (const std::string &A : LockArgs) {
      std::string Id = lockId(A);
      CfgStmt S;
      S.K = CfgStmt::Acquire;
      S.Id = Id;
      fillPos(S, I);
      push(std::move(S));
      GuardScopes.back().push_back(std::move(Id));
    }
    return true;
  }

  /// `Type Name(args);` / `Type Name{args};` / `Type Name;` without an
  /// '=': declares a local. Returns true when a declaration was found.
  bool findPlainDecl(size_t B, size_t E) {
    int D = 0;
    for (size_t J = B; J < E; ++J) {
      if (T[J].K == Token::Punct) {
        const std::string &P = T[J].Text;
        if (P == "(" || P == "[" || P == "{")
          ++D;
        else if (P == ")" || P == "]" || P == "}")
          --D;
        continue;
      }
      if (D != 0 || T[J].K != Token::Ident || J == B)
        continue;
      bool NextOk = J + 1 >= E || punctIs(T, J + 1, "(") ||
                    punctIs(T, J + 1, "{");
      if (!NextOk)
        continue;
      const Token &P = T[J - 1];
      bool PrevOk = (P.K == Token::Ident && !isControlKw(P.Text)) ||
                    (P.K == Token::Punct &&
                     (P.Text == "*" || P.Text == "&" || P.Text == ">"));
      if (!PrevOk)
        continue;
      CfgStmt S;
      S.K = CfgStmt::Def;
      S.Id = T[J].Text;
      if (J + 1 < E) {
        size_t ArgsEnd = punctIs(T, J + 1, "(")
                             ? skipBalanced(T, J + 1, "(", ")")
                             : skipBalanced(T, J + 1, "{", "}");
        size_t AB = J + 2, AE = ArgsEnd > J + 2 ? ArgsEnd - 1 : J + 2;
        S.Origin = originOf(AB, AE);
        S.Aliases = aliasCandidates(AB, AE);
      }
      Locals.insert(S.Id);
      fillPos(S, J);
      push(std::move(S));
      return true;
    }
    return false;
  }

  void emitReturn(size_t RetTok, size_t B, size_t E) {
    scanEvents(B, E);
    CfgStmt S;
    S.K = CfgStmt::Ret;
    S.Origin = originOf(B, E);
    S.Aliases = aliasCandidates(B, E);
    fillPos(S, RetTok);
    push(std::move(S));
  }

  //===--------------------------------------------------------------------===//
  // Event scan (phase A of a statement)
  //===--------------------------------------------------------------------===//

  /// Emits Use/Call/Acquire/Release/ArenaReset/inc-dec-Write events in
  /// token order over [B, E), skipping extracted lambda ranges and the
  /// optional exclusion range [ExB, ExE).
  void scanEvents(size_t B, size_t E, size_t ExB = 0, size_t ExE = 0) {
    for (size_t I = B; I < E; ++I) {
      if (I >= ExB && I < ExE)
        continue;
      size_t SkipEnd = 0;
      if (inSkipRange(I, SkipEnd)) {
        I = SkipEnd - 1;
        continue;
      }
      const Token &Tok = T[I];
      if (Tok.K == Token::Punct) {
        if (Tok.Text == "++" || Tok.Text == "--")
          handleIncDec(I, B, E);
        continue;
      }
      if (Tok.K != Token::Ident)
        continue;
      bool PrevDot =
          I > B && (punctIs(T, I - 1, ".") || punctIs(T, I - 1, "->"));
      bool PrevColon = I > B && punctIs(T, I - 1, "::");
      size_t AfterName = I + 1;
      if (punctIs(T, AfterName, "<")) {
        size_t Skip = skipTemplateArgs(T, AfterName);
        if (Skip > AfterName + 1 && punctIs(T, Skip, "("))
          AfterName = Skip;
      }
      if (punctIs(T, AfterName, "(")) {
        if (PrevDot) {
          memberCall(I, AfterName);
          continue;
        }
        if (isControlKw(Tok.Text))
          continue;
        // `Vec add(` — an identifier (that cannot precede a call) or a
        // closing '>' before the name means a declarator, not a call.
        if (I > B && T[I - 1].K == Token::Ident && !precedesCall(T[I - 1].Text))
          continue;
        if (I > B && punctIs(T, I - 1, ">"))
          continue;
        std::string Qual;
        size_t Back = I;
        while (Back >= B + 2 && punctIs(T, Back - 1, "::") &&
               T[Back - 2].K == Token::Ident) {
          Qual = T[Back - 2].Text + (Qual.empty() ? "" : "::" + Qual);
          Back -= 2;
        }
        CfgStmt S;
        S.K = CfgStmt::Call;
        S.Id = Tok.Text;
        S.Qual = Qual;
        S.Member = false;
        S.LocalRecv = Qual.empty() && Locals.count(Tok.Text) > 0;
        fillPos(S, I);
        push(std::move(S));
        continue;
      }
      if (!PrevDot && !PrevColon && !punctIs(T, I + 1, "::") &&
          Locals.count(Tok.Text)) {
        CfgStmt S;
        S.K = CfgStmt::Use;
        S.Id = Tok.Text;
        fillPos(S, I);
        push(std::move(S));
      }
    }
  }

  void memberCall(size_t NameIdx, size_t ParenIdx) {
    std::string Recv = receiverChain(NameIdx - 1);
    const std::string &Name = T[NameIdx].Text;
    size_t ArgsEnd = skipBalanced(T, ParenIdx, "(", ")");
    bool NoArgs = ArgsEnd == ParenIdx + 2;
    if (Name == "lock" && NoArgs) {
      CfgStmt S;
      S.K = CfgStmt::Acquire;
      S.Id = lockId(Recv);
      fillPos(S, NameIdx);
      push(std::move(S));
      return;
    }
    if (Name == "unlock" && NoArgs) {
      CfgStmt S;
      S.K = CfgStmt::Release;
      S.Id = lockId(Recv);
      fillPos(S, NameIdx);
      push(std::move(S));
      return;
    }
    if (Name == "reset" && NoArgs && !Recv.empty()) {
      CfgStmt S;
      S.K = CfgStmt::ArenaReset;
      S.Id = lockId(Recv);
      fillPos(S, NameIdx);
      push(std::move(S));
      return;
    }
    CfgStmt S;
    S.K = CfgStmt::Call;
    S.Id = Name;
    S.Member = true;
    S.LocalRecv = Locals.count(chainBase(Recv)) > 0;
    fillPos(S, NameIdx);
    push(std::move(S));
  }

  /// `++Chain` / `Chain++`: a Write when the chain base is non-local.
  void handleIncDec(size_t OpIdx, size_t B, size_t E) {
    // Postfix: a chain ends just before the operator.
    if (OpIdx > B &&
        (T[OpIdx - 1].K == Token::Ident || punctIs(T, OpIdx - 1, "]"))) {
      LhsChain C = parseLhsChain(B, OpIdx);
      if (C.Valid && !C.Deref && !Locals.count(C.Comps.front()))
        pushIncDecWrite(C);
      return;
    }
    // Prefix: a chain starts right after the operator.
    size_t K = OpIdx + 1;
    if (K >= E || T[K].K != Token::Ident)
      return;
    LhsChain C;
    C.StartTok = K;
    C.Comps.push_back(T[K].Text);
    ++K;
    while (K + 1 < E && (punctIs(T, K, ".") || punctIs(T, K, "->")) &&
           T[K + 1].K == Token::Ident) {
      C.Seps.push_back(T[K].Text);
      C.Comps.push_back(T[K + 1].Text);
      K += 2;
    }
    C.Valid = true;
    if (!Locals.count(C.Comps.front()))
      pushIncDecWrite(C);
  }

  void pushIncDecWrite(const LhsChain &C) {
    CfgStmt S;
    S.K = CfgStmt::Write;
    S.Id = chainText(C);
    S.Base = C.Comps.size() > 1 ? C.Comps.front() : "";
    S.Last = C.Comps.back();
    fillPos(S, C.StartTok);
    push(std::move(S));
  }

  //===--------------------------------------------------------------------===//
  // Expression classification (phase B inputs)
  //===--------------------------------------------------------------------===//

  /// Direct tracked origin of an expression: an `.allocateArray<T>(` call
  /// anywhere inside it.
  std::string originOf(size_t B, size_t E) const {
    for (size_t I = B; I < E; ++I) {
      if (T[I].K != Token::Ident)
        continue;
      bool PrevDot =
          I > B && (punctIs(T, I - 1, ".") || punctIs(T, I - 1, "->"));
      if (!PrevDot)
        continue;
      if (T[I].Text == "allocateArray") {
        size_t A = I + 1;
        if (punctIs(T, A, "<"))
          A = skipTemplateArgs(T, A);
        if (punctIs(T, A, "("))
          return "arena:" + lockId(receiverChain(I - 1));
      }
    }
    return "";
  }

  /// Locals whose pointer value the expression may preserve: bare
  /// mentions, `&X`, and `X...get()` chains. Any top-level comparison
  /// or boolean operator means the value is a predicate, not a pointer.
  std::vector<std::string> aliasCandidates(size_t B, size_t E) const {
    int D = 0;
    for (size_t I = B; I < E; ++I) {
      if (T[I].K != Token::Punct)
        continue;
      const std::string &P = T[I].Text;
      if (P == "(" || P == "[" || P == "{")
        ++D;
      else if (P == ")" || P == "]" || P == "}")
        --D;
      else if (D == 0 && isCompareOp(P))
        return {};
    }
    std::vector<std::string> Out;
    for (size_t I = B; I < E; ++I) {
      if (T[I].K != Token::Ident || !Locals.count(T[I].Text))
        continue;
      if (I > B && (punctIs(T, I - 1, ".") || punctIs(T, I - 1, "->") ||
                    punctIs(T, I - 1, "::")))
        continue;
      if (punctIs(T, I + 1, "::"))
        continue;
      bool Amp = I > B && punctIs(T, I - 1, "&");
      bool Chained = punctIs(T, I + 1, ".") || punctIs(T, I + 1, "->") ||
                     punctIs(T, I + 1, "[");
      if (!Chained || Amp) {
        Out.push_back(T[I].Text);
        continue;
      }
      // Walk the member chain: `X->A.get()` preserves X's pointee.
      size_t K = I + 1;
      std::string LastComp;
      while (K + 1 < E && (punctIs(T, K, ".") || punctIs(T, K, "->")) &&
             T[K + 1].K == Token::Ident) {
        LastComp = T[K + 1].Text;
        K += 2;
      }
      if (LastComp == "get" && punctIs(T, K, "("))
        Out.push_back(T[I].Text);
    }
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  }
};

} // namespace

FunctionCfg medley::lint::buildFunctionCfg(size_t BodyBegin, size_t BodyEnd,
                                           const CfgBuildContext &Ctx) {
  if (!Ctx.Toks || !Ctx.Lines)
    return FunctionCfg();
  Builder B(Ctx);
  return B.build(BodyBegin, BodyEnd);
}

std::vector<std::string>
medley::lint::collectParamNames(const std::vector<Token> &Toks, size_t B,
                                size_t E) {
  std::vector<std::string> Out;
  auto Flush = [&](size_t PB, size_t PE) {
    // Truncate at a top-level '=' (default argument).
    int D = 0;
    for (size_t I = PB; I < PE; ++I) {
      if (Toks[I].K != Token::Punct)
        continue;
      const std::string &P = Toks[I].Text;
      if (P == "(" || P == "[" || P == "{")
        ++D;
      else if (P == ")" || P == "]" || P == "}")
        --D;
      else if (P == "=" && D == 0) {
        PE = I;
        break;
      }
    }
    for (size_t K = PE; K-- > PB;) {
      if (Toks[K].K != Token::Ident)
        continue;
      if (K + 1 < PE && (punctIs(Toks, K + 1, "::") || punctIs(Toks, K + 1, "<")))
        continue;
      Out.push_back(Toks[K].Text);
      return;
    }
  };
  int D = 0;
  size_t PartB = B;
  for (size_t I = B; I < E; ++I) {
    if (Toks[I].K == Token::Ident && punctIs(Toks, I + 1, "<")) {
      size_t Skip = skipTemplateArgs(Toks, I + 1);
      if (Skip > I + 2) {
        I = Skip - 1;
        continue;
      }
    }
    if (Toks[I].K != Token::Punct)
      continue;
    const std::string &P = Toks[I].Text;
    if (P == "(" || P == "[" || P == "{")
      ++D;
    else if (P == ")" || P == "]" || P == "}")
      --D;
    else if (P == "," && D == 0) {
      if (I > PartB)
        Flush(PartB, I);
      PartB = I + 1;
    }
  }
  if (E > PartB)
    Flush(PartB, E);
  return Out;
}
