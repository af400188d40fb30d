//===-- tools/medley-lint/Rules.cpp - The five rule families -------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token-stream heuristics for the determinism & concurrency invariants.
/// Each rule walks the token vector of one file; none of them builds an
/// AST. False positives are expected to be rare and are silenced with
/// `// medley-lint: allow(<rule>)` at the offending line.
///
//===----------------------------------------------------------------------===//

#include "medley-lint/Internal.h"

#include <algorithm>
#include <cctype>

using namespace medley::lint;

namespace {

using Tokens = std::vector<Token>;

/// Context handed to every rule.
struct RuleCtx {
  const std::string &Path;
  FileKind Kind;
  const Tokens &Toks;
  std::vector<Finding> &Out;

  const Token *at(size_t I) const { return I < Toks.size() ? &Toks[I] : nullptr; }

  bool identAt(size_t I, const char *Text) const {
    const Token *T = at(I);
    return T && T->K == Token::Ident && T->Text == Text;
  }
  bool punctAt(size_t I, const char *Text) const {
    const Token *T = at(I);
    return T && T->K == Token::Punct && T->Text == Text;
  }

  void report(const Token &At, const std::string &Rule,
              const std::string &Message) const {
    Finding F;
    F.File = Path;
    F.Line = At.Line;
    F.Col = At.Col;
    F.Rule = Rule;
    F.Message = Message;
    Out.push_back(std::move(F));
  }
};

/// True when \p Text spells a floating-point literal (decimal point, a
/// decimal exponent, or an f/F/l/L suffix on a fractional form). Hex
/// integers never qualify.
bool isFloatLiteral(const std::string &Text) {
  if (Text.size() > 1 && Text[0] == '0' && (Text[1] == 'x' || Text[1] == 'X'))
    return false;
  if (Text.find('.') != std::string::npos)
    return true;
  // 1e9 / 2E-3 — exponent without a dot still makes a double.
  for (size_t I = 1; I < Text.size(); ++I)
    if ((Text[I] == 'e' || Text[I] == 'E') &&
        std::isdigit(static_cast<unsigned char>(Text[0])))
      return true;
  return false;
}

bool isUnorderedTypeName(const std::string &S) {
  return S == "unordered_map" || S == "unordered_set" ||
         S == "unordered_multimap" || S == "unordered_multiset";
}

//===----------------------------------------------------------------------===//
// L1: nondeterminism — banned entropy/wall-clock sources in src/.
//===----------------------------------------------------------------------===//

void ruleNondeterminism(const RuleCtx &C) {
  if (C.Kind != FileKind::Src && C.Kind != FileKind::SrcSupport)
    return;
  const Tokens &T = C.Toks;
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I].K != Token::Ident)
      continue;
    const std::string &Name = T[I].Text;

    if (Name == "random_device") {
      C.report(T[I], RuleNondeterminism,
               "'std::random_device' is system entropy — all randomness in "
               "src/ must flow from a seeded support::Rng");
      continue;
    }

    if ((Name == "system_clock" || Name == "steady_clock" ||
         Name == "high_resolution_clock") &&
        C.punctAt(I + 1, "::") && C.identAt(I + 2, "now")) {
      C.report(T[I], RuleNondeterminism,
               "wall-clock read '" + Name +
                   "::now()' in src/ — measurements must use simulated time "
                   "so results are bit-identical across runs");
      continue;
    }

    if ((Name == "rand" || Name == "srand" || Name == "time") &&
        C.punctAt(I + 1, "(")) {
      // Skip member calls (x.time()) and qualified names from namespaces
      // other than std (mylib::rand()).
      if (I > 0 && T[I - 1].K == Token::Punct) {
        const std::string &Prev = T[I - 1].Text;
        if (Prev == "." || Prev == "->")
          continue;
        if (Prev == "::" && !(I >= 2 && C.identAt(I - 2, "std")))
          continue;
      }
      C.report(T[I], RuleNondeterminism,
               "call to '" + Name +
                   "' in src/ — use support::Rng (seeded) instead of libc "
                   "entropy/wall-clock");
    }
  }
}

//===----------------------------------------------------------------------===//
// L2: unordered-reduction — loops over unordered containers feeding an
// accumulation. Hash iteration order is implementation-defined; a
// reduction over it breaks the bit-identity contract of PR 1.
//===----------------------------------------------------------------------===//

bool isAccumulation(const Token &T) {
  static const char *Ops[] = {"+=", "-=", "*=", "/=", "|=", "&=", "^=", "<<"};
  if (T.K == Token::Punct)
    for (const char *Op : Ops)
      if (T.Text == Op)
        return true;
  static const char *Calls[] = {"push_back", "emplace_back", "append",
                                "insert", "emplace"};
  if (T.K == Token::Ident)
    for (const char *Call : Calls)
      if (T.Text == Call)
        return true;
  return false;
}

void ruleUnorderedReduction(const RuleCtx &C) {
  const Tokens &T = C.Toks;

  // Pass 1: names of variables declared with an unordered container
  // type (declarations and parameters alike).
  std::set<std::string> UnorderedVars;
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I].K != Token::Ident || !isUnorderedTypeName(T[I].Text))
      continue;
    size_t J = I + 1;
    if (C.punctAt(J, "<"))
      J = skipTemplateArgs(T, J);
    // Skip cv-qualifiers and declarator punctuation up to the name.
    while (J < T.size() &&
           ((T[J].K == Token::Punct &&
             (T[J].Text == "&" || T[J].Text == "*")) ||
            (T[J].K == Token::Ident && T[J].Text == "const")))
      ++J;
    if (J < T.size() && T[J].K == Token::Ident)
      UnorderedVars.insert(T[J].Text);
  }

  // Pass 2: for-loops whose range/header names one of those variables
  // (or an unordered type directly) and whose body accumulates.
  for (size_t I = 0; I + 1 < T.size(); ++I) {
    if (!C.identAt(I, "for") || !C.punctAt(I + 1, "("))
      continue;
    size_t HeaderEnd = skipBalanced(T, I + 1, "(", ")"); // one past ')'
    bool Unordered = false;
    bool IteratorStyle = false;
    for (size_t J = I + 2; J + 1 < HeaderEnd; ++J) {
      if (T[J].K != Token::Ident)
        continue;
      if (isUnorderedTypeName(T[J].Text) || UnorderedVars.count(T[J].Text))
        Unordered = true;
      if (T[J].Text == "begin" || T[J].Text == "cbegin")
        IteratorStyle = true;
    }
    // Range-for always iterates its range; an iterator loop needs the
    // begin() giveaway so `for (i = 0; i < m.size(); ++i)` stays legal.
    bool RangeFor = false;
    {
      int Depth = 0;
      for (size_t J = I + 1; J + 1 < HeaderEnd; ++J) {
        if (C.punctAt(J, "("))
          ++Depth;
        else if (C.punctAt(J, ")"))
          --Depth;
        else if (Depth == 1 && C.punctAt(J, ":"))
          RangeFor = true;
      }
    }
    if (!Unordered || !(RangeFor || IteratorStyle))
      continue;

    // Body: a brace block or a single statement.
    size_t BodyBegin = HeaderEnd;
    size_t BodyEnd;
    if (C.punctAt(BodyBegin, "{")) {
      BodyEnd = skipBalanced(T, BodyBegin, "{", "}");
    } else {
      BodyEnd = BodyBegin;
      while (BodyEnd < T.size() && !C.punctAt(BodyEnd, ";"))
        ++BodyEnd;
    }
    for (size_t J = BodyBegin; J < BodyEnd; ++J) {
      if (isAccumulation(T[J])) {
        C.report(T[I], RuleUnorderedReduction,
                 "loop over an unordered container accumulates into a "
                 "result — hash order is implementation-defined; iterate a "
                 "sorted copy or use std::map/std::set");
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// L3: raw-concurrency — threads and locks outside src/support/.
//===----------------------------------------------------------------------===//

void ruleRawConcurrency(const RuleCtx &C) {
  if (C.Kind == FileKind::SrcSupport)
    return;
  const Tokens &T = C.Toks;
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I].K != Token::Ident)
      continue;
    const std::string &Name = T[I].Text;

    if ((Name == "thread" || Name == "jthread") && I >= 2 &&
        C.punctAt(I - 1, "::") && C.identAt(I - 2, "std")) {
      // std::thread::hardware_concurrency() is a pure query, not a
      // spawned thread.
      if (C.punctAt(I + 1, "::"))
        continue;
      C.report(T[I], RuleRawConcurrency,
               "raw 'std::" + Name +
                   "' outside src/support/ — concurrency must go through "
                   "support::ThreadPool");
      continue;
    }

    bool MemberCall = I > 0 && T[I - 1].K == Token::Punct &&
                      (T[I - 1].Text == "." || T[I - 1].Text == "->") &&
                      C.punctAt(I + 1, "(");
    if (MemberCall && Name == "detach") {
      C.report(T[I], RuleRawConcurrency,
               "'.detach()' — detached threads escape join/exception "
               "propagation; use support::ThreadPool");
      continue;
    }
    if (MemberCall && Name == "lock" && C.punctAt(I + 2, ")")) {
      C.report(T[I], RuleRawConcurrency,
               "raw '.lock()' — use std::lock_guard/std::scoped_lock so "
               "unlock is exception-safe");
    }
  }
}

//===----------------------------------------------------------------------===//
// L4: float-equality — ==/!= against a floating literal, outside test
// assertion macros.
//===----------------------------------------------------------------------===//

/// True when token \p I sits (at any nesting depth) inside the argument
/// list of an EXPECT_* / ASSERT_* / GTEST_* macro. The walk is bounded
/// by the enclosing statement.
bool insideAssertionMacro(const RuleCtx &C, size_t I) {
  const Tokens &T = C.Toks;
  int Depth = 0;
  for (size_t J = I; J-- > 0;) {
    if (T[J].K == Token::Punct) {
      const std::string &P = T[J].Text;
      if (P == ")") {
        ++Depth;
      } else if (P == "(") {
        if (Depth > 0) {
          --Depth;
        } else {
          // An enclosing open paren: is it an assertion macro's?
          if (J > 0 && T[J - 1].K == Token::Ident) {
            const std::string &M = T[J - 1].Text;
            if (M.rfind("EXPECT_", 0) == 0 || M.rfind("ASSERT_", 0) == 0 ||
                M.rfind("GTEST_", 0) == 0)
              return true;
          }
          // Keep walking outward (e.g. EXPECT_TRUE(f(x == 1.0))).
        }
      } else if (Depth == 0 && (P == ";" || P == "{" || P == "}")) {
        return false;
      }
    }
  }
  return false;
}

void ruleFloatEquality(const RuleCtx &C) {
  const Tokens &T = C.Toks;
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I].K != Token::Punct || (T[I].Text != "==" && T[I].Text != "!="))
      continue;
    std::string Literal;
    if (I > 0 && T[I - 1].K == Token::Number && isFloatLiteral(T[I - 1].Text))
      Literal = T[I - 1].Text;
    size_t R = I + 1;
    if (C.punctAt(R, "-") || C.punctAt(R, "+"))
      ++R;
    if (Literal.empty() && R < T.size() && T[R].K == Token::Number &&
        isFloatLiteral(T[R].Text))
      Literal = T[R].Text;
    if (Literal.empty())
      continue;
    if (insideAssertionMacro(C, I))
      continue;
    C.report(T[I], RuleFloatEquality,
             "floating-point '" + T[I].Text + "' against literal '" + Literal +
                 "' — compare with an explicit tolerance (or annotate an "
                 "intentional exact check)");
  }
}

//===----------------------------------------------------------------------===//
// L5: error-check — a support::Error* out-parameter the function body
// never mentions means failures are silently dropped.
//===----------------------------------------------------------------------===//

void ruleErrorCheck(const RuleCtx &C) {
  const Tokens &T = C.Toks;
  for (size_t I = 0; I + 2 < T.size(); ++I) {
    if (!C.identAt(I, "Error") || !C.punctAt(I + 1, "*"))
      continue;
    const Token *NameTok = C.at(I + 2);
    if (!NameTok || NameTok->K != Token::Ident)
      continue;
    std::string Lower;
    for (char Ch : NameTok->Text)
      Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(Ch)));
    if (Lower != "err" && Lower != "error")
      continue;

    // Close of the parameter list this declarator sits in: the first ')'
    // that is not balancing a later '('.
    size_t J = I + 3;
    int Depth = 0;
    for (; J < T.size(); ++J) {
      if (T[J].K != Token::Punct)
        continue;
      if (T[J].Text == "(")
        ++Depth;
      else if (T[J].Text == ")") {
        if (Depth == 0)
          break;
        --Depth;
      } else if (Depth == 0 && (T[J].Text == ";" || T[J].Text == "{")) {
        break; // Not a parameter after all (local declaration).
      }
    }
    if (J >= T.size() || !C.punctAt(J, ")"))
      continue;

    // A '{' before the next ';' means this is a definition with a body.
    size_t K = J + 1;
    while (K < T.size() && !C.punctAt(K, "{") && !C.punctAt(K, ";") &&
           !C.punctAt(K, ","))
      ++K;
    if (K >= T.size() || !C.punctAt(K, "{"))
      continue;

    size_t BodyEnd = skipBalanced(T, K, "{", "}");
    bool Mentioned = false;
    for (size_t B = K + 1; B + 1 < BodyEnd && !Mentioned; ++B)
      Mentioned = T[B].K == Token::Ident && T[B].Text == NameTok->Text;
    if (!Mentioned)
      C.report(*NameTok, RuleErrorCheck,
               "support::Error out-param '" + NameTok->Text +
                   "' is never read or assigned in this function body — "
                   "failures are silently dropped");
  }
}

} // namespace

void medley::lint::runRules(const std::string &Path, FileKind Kind,
                            const LexedFile &Lexed,
                            std::vector<Finding> &Out) {
  RuleCtx C{Path, Kind, Lexed.Tokens, Out};
  ruleNondeterminism(C);
  ruleUnorderedReduction(C);
  ruleRawConcurrency(C);
  ruleFloatEquality(C);
  ruleErrorCheck(C);
}
