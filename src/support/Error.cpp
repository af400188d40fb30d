//===-- support/Error.cpp - Fatal error reporting -------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"

#include <cstdio>
#include <cstdlib>

namespace medley {

void reportFatalError(const std::string &Message) {
  std::fprintf(stderr, "medley fatal error: %s\n", Message.c_str());
  std::abort();
}

namespace support {

const char *errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::None:
    return "none";
  case ErrorCode::IoFailure:
    return "io-failure";
  case ErrorCode::TruncatedInput:
    return "truncated-input";
  case ErrorCode::CorruptInput:
    return "corrupt-input";
  case ErrorCode::NonFiniteValue:
    return "non-finite-value";
  case ErrorCode::InvalidArgument:
    return "invalid-argument";
  case ErrorCode::ChecksumMismatch:
    return "checksum-mismatch";
  }
  return "unknown";
}

std::string Error::str() const {
  if (Code == ErrorCode::None)
    return "";
  return std::string(errorCodeName(Code)) + ": " + Message;
}

void reportError(Error *Out, ErrorCode Code, const std::string &Message) {
  if (Out)
    *Out = Error(Code, Message);
}

} // namespace support
} // namespace medley
