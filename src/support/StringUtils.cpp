//===-- support/StringUtils.cpp - String formatting helpers ---------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace medley {

std::string formatDouble(double Value, int Precision) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Precision, Value);
  return Buffer;
}

std::string padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string asciiBar(double Value, double UnitsPerChar, size_t MaxChars) {
  if (Value <= 0.0 || UnitsPerChar <= 0.0)
    return "";
  size_t N = static_cast<size_t>(std::lround(Value * UnitsPerChar));
  N = std::min(N, MaxChars);
  return std::string(N, '#');
}

std::optional<uint64_t> parseUnsigned(std::string_view Text, uint64_t Min,
                                      uint64_t Max) {
  int Base = 10;
  if (Text.size() > 2 && Text[0] == '0' &&
      (Text[1] == 'x' || Text[1] == 'X')) {
    Text.remove_prefix(2);
    Base = 16;
  }
  uint64_t Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Value, Base);
  if (Ec != std::errc() || Stop != End || Value < Min || Value > Max)
    return std::nullopt;
  return Value;
}

std::optional<double> parseDouble(std::string_view Text, double Min,
                                  double Max) {
  double Value = 0.0;
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Stop != End || !std::isfinite(Value) ||
      Value < Min || Value > Max)
    return std::nullopt;
  return Value;
}

} // namespace medley
