//===-- tools/medley-lint/Lexer.cpp - C++ tokenizer ----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "medley-lint/Lint.h"

#include <cctype>

using namespace medley::lint;

namespace {

/// Cursor over the source with line/column bookkeeping.
class Cursor {
public:
  explicit Cursor(const std::string &Source) : S(Source) {}

  bool done() const { return I >= S.size(); }
  char peek(size_t Ahead = 0) const {
    return I + Ahead < S.size() ? S[I + Ahead] : '\0';
  }
  unsigned line() const { return Line; }
  unsigned col() const { return Col; }

  char advance() {
    char C = S[I++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }

private:
  const std::string &S;
  size_t I = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

bool isIdentStart(char C) { return std::isalpha(static_cast<unsigned char>(C)) || C == '_'; }
bool isIdentChar(char C) { return std::isalnum(static_cast<unsigned char>(C)) || C == '_'; }

/// Multi-character operators the rules care about; longest match first.
/// Everything else falls back to single-character Punct tokens.
const char *const Operators[] = {
    "<<=", ">>=", "->*", "...", "::", "->", "==", "!=", "<=", ">=",
    "&&",  "||",  "+=",  "-=",  "*=", "/=", "%=", "&=", "|=", "^=",
    "<<",  ">>",  "++",  "--",
};

/// Records `medley-lint: allow(a, b)` annotations found in \p Comment.
void parseAllow(const std::string &Comment, unsigned Line, LexedFile &Out) {
  const std::string Marker = "medley-lint:";
  size_t At = Comment.find(Marker);
  if (At == std::string::npos)
    return;
  size_t Open = Comment.find("allow(", At + Marker.size());
  if (Open == std::string::npos)
    return;
  size_t Close = Comment.find(')', Open);
  if (Close == std::string::npos)
    return;
  std::string List = Comment.substr(Open + 6, Close - Open - 6);
  std::string Rule;
  auto Flush = [&] {
    if (!Rule.empty())
      Out.AllowedByLine[Line].insert(Rule);
    Rule.clear();
  };
  for (char C : List) {
    if (C == ',')
      Flush();
    else if (!std::isspace(static_cast<unsigned char>(C)))
      Rule += C;
  }
  Flush();
}

} // namespace

LexedFile medley::lint::lex(const std::string &Source) {
  LexedFile Out;
  Cursor C(Source);

  while (!C.done()) {
    char Ch = C.peek();

    if (std::isspace(static_cast<unsigned char>(Ch))) {
      C.advance();
      continue;
    }

    // Preprocessor directive: consume to end of line (honouring
    // backslash continuations). '#' has no token-level meaning outside
    // directives, and a directive's words (`include < vector >`) are not
    // code the rules should read.
    if (Ch == '#') {
      while (!C.done() && C.peek() != '\n') {
        char D = C.advance();
        if (D == '\\' && C.peek() == '\n')
          C.advance(); // continuation: the directive spans this newline
      }
      continue;
    }

    // Line comment — the annotation carrier.
    if (Ch == '/' && C.peek(1) == '/') {
      unsigned Line = C.line();
      std::string Text;
      while (!C.done() && C.peek() != '\n')
        Text += C.advance();
      parseAllow(Text, Line, Out);
      continue;
    }

    // Block comment; an annotation inside applies at its starting line.
    if (Ch == '/' && C.peek(1) == '*') {
      unsigned Line = C.line();
      std::string Text;
      C.advance();
      C.advance();
      while (!C.done() && !(C.peek() == '*' && C.peek(1) == '/'))
        Text += C.advance();
      if (!C.done()) {
        C.advance();
        C.advance();
      }
      parseAllow(Text, Line, Out);
      continue;
    }

    // Raw string literal: R"delim(...)delim" — no escapes inside.
    if (Ch == 'R' && C.peek(1) == '"') {
      Token T{Token::String, "", C.line(), C.col()};
      C.advance(); // R
      C.advance(); // "
      std::string Delim;
      while (!C.done() && C.peek() != '(')
        Delim += C.advance();
      if (!C.done())
        C.advance(); // (
      std::string Close = ")" + Delim + "\"";
      std::string Body;
      while (!C.done()) {
        Body += C.advance();
        if (Body.size() >= Close.size() &&
            Body.compare(Body.size() - Close.size(), Close.size(), Close) == 0)
          break;
      }
      T.Text = Body.substr(0, Body.size() >= Close.size()
                                  ? Body.size() - Close.size()
                                  : Body.size());
      Out.Tokens.push_back(std::move(T));
      continue;
    }

    // String / char literal with escapes.
    if (Ch == '"' || Ch == '\'') {
      Token T{Token::String, "", C.line(), C.col()};
      char Quote = C.advance();
      while (!C.done() && C.peek() != Quote) {
        char E = C.advance();
        T.Text += E;
        if (E == '\\' && !C.done())
          T.Text += C.advance();
      }
      if (!C.done())
        C.advance(); // closing quote
      Out.Tokens.push_back(std::move(T));
      continue;
    }

    if (isIdentStart(Ch)) {
      Token T{Token::Ident, "", C.line(), C.col()};
      while (!C.done() && isIdentChar(C.peek()))
        T.Text += C.advance();
      Out.Tokens.push_back(std::move(T));
      continue;
    }

    // Number: integers, floats, exponents, hex, suffixes, digit
    // separators. A leading '.' followed by a digit is a float.
    if (std::isdigit(static_cast<unsigned char>(Ch)) ||
        (Ch == '.' && std::isdigit(static_cast<unsigned char>(C.peek(1))))) {
      Token T{Token::Number, "", C.line(), C.col()};
      bool Hex = false;
      while (!C.done()) {
        char N = C.peek();
        if (isIdentChar(N) || N == '.' || N == '\'') {
          if (T.Text == "0" && (N == 'x' || N == 'X'))
            Hex = true;
          T.Text += C.advance();
        } else if ((N == '+' || N == '-') && !T.Text.empty() && !Hex &&
                   (T.Text.back() == 'e' || T.Text.back() == 'E')) {
          T.Text += C.advance(); // exponent sign
        } else {
          break;
        }
      }
      Out.Tokens.push_back(std::move(T));
      continue;
    }

    // Operators, longest match first.
    bool Matched = false;
    for (const char *Op : Operators) {
      size_t Len = std::string(Op).size();
      bool Ok = true;
      for (size_t I = 0; I < Len && Ok; ++I)
        Ok = C.peek(I) == Op[I];
      if (Ok) {
        Token T{Token::Punct, Op, C.line(), C.col()};
        for (size_t I = 0; I < Len; ++I)
          C.advance();
        Out.Tokens.push_back(std::move(T));
        Matched = true;
        break;
      }
    }
    if (Matched)
      continue;

    Token T{Token::Punct, std::string(1, Ch), C.line(), C.col()};
    C.advance();
    Out.Tokens.push_back(std::move(T));
  }

  return Out;
}
