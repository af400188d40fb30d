//===-- support/Error.h - Fatal error reporting -----------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity: A Mixture of
// Experts Approach for Runtime Mapping in Dynamic Environments" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error reporting. Broken invariants go through reportFatalError (print
/// and abort); recoverable conditions — malformed input files, rejected
/// models, injected faults — are described by support::Error, a small
/// code + message value returned (or filled through an out-parameter)
/// alongside the usual optional/bool result so callers can degrade
/// gracefully instead of propagating garbage.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SUPPORT_ERROR_H
#define MEDLEY_SUPPORT_ERROR_H

#include <string>

namespace medley {

/// Prints \p Message to stderr and aborts. Used for invariant violations
/// that must be diagnosed even in builds without assertions.
[[noreturn]] void reportFatalError(const std::string &Message);

namespace support {

/// Taxonomy of recoverable failures.
enum class ErrorCode {
  None = 0,       ///< Success.
  IoFailure,      ///< File could not be opened / read / written.
  TruncatedInput, ///< Input ended mid-record.
  CorruptInput,   ///< Structure violated (bad magic, arity, ordering).
  NonFiniteValue, ///< A NaN/Inf where a finite number is required.
  InvalidArgument,///< Caller-supplied parameter out of range.
  ChecksumMismatch, ///< Stored content checksum disagrees with the payload.
};

/// Short stable name of \p Code ("io-failure", "truncated-input", ...).
const char *errorCodeName(ErrorCode Code);

/// A recoverable error: a code from the taxonomy plus a human-readable
/// description. Default-constructed instances mean success and convert to
/// false.
class Error {
public:
  Error() = default;
  Error(ErrorCode Code, std::string Message)
      : Code(Code), Message(std::move(Message)) {}

  /// True when an error is present.
  explicit operator bool() const { return Code != ErrorCode::None; }

  ErrorCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// "code-name: message" (empty string for success).
  std::string str() const;

private:
  ErrorCode Code = ErrorCode::None;
  std::string Message;
};

/// Assigns \p E to \p Out when \p Out is non-null; a helper for the
/// `optional<T> f(..., Error *Err)` reporting convention.
void reportError(Error *Out, ErrorCode Code, const std::string &Message);

} // namespace support
} // namespace medley

/// Marks a point in code that must never be reached.
#define MEDLEY_UNREACHABLE(MSG)                                               \
  ::medley::reportFatalError(std::string("unreachable: ") + (MSG))

#endif // MEDLEY_SUPPORT_ERROR_H
