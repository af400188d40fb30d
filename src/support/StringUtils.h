//===-- support/StringUtils.h - String formatting helpers -------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared by the table/CSV writers and the reporters,
/// and the strict number parsers behind every numeric flag and MEDLEY_JOBS.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SUPPORT_STRINGUTILS_H
#define MEDLEY_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace medley {

/// Formats \p Value with \p Precision digits after the decimal point.
std::string formatDouble(double Value, int Precision = 2);

/// Pads \p S with spaces on the left to \p Width characters.
std::string padLeft(const std::string &S, size_t Width);

/// Pads \p S with spaces on the right to \p Width characters.
std::string padRight(const std::string &S, size_t Width);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Parses all of \p Text as an unsigned integer in [Min, Max]: decimal, or
/// hexadecimal after "0x". Anything else (empty, blanks, a sign, trailing
/// junk, overflow, out of range) gives std::nullopt.
std::optional<uint64_t>
parseUnsigned(std::string_view Text, uint64_t Min = 0,
              uint64_t Max = std::numeric_limits<uint64_t>::max());

/// Parses all of \p Text as a finite decimal number in [Min, Max];
/// std::nullopt for anything else.
std::optional<double>
parseDouble(std::string_view Text,
            double Min = std::numeric_limits<double>::lowest(),
            double Max = std::numeric_limits<double>::max());

/// Renders a horizontal ASCII bar of length round(Value * UnitsPerChar),
/// capped at \p MaxChars. Used by the figure benches to sketch bar charts.
std::string asciiBar(double Value, double UnitsPerChar, size_t MaxChars = 60);

} // namespace medley

#endif // MEDLEY_SUPPORT_STRINGUTILS_H
