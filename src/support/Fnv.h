//===-- support/Fnv.h - FNV-1a content hashing ------------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity: A Mixture of
// Experts Approach for Runtime Mapping in Dynamic Environments" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a content hashing, shared by the ExpertIo on-disk format's
/// checksum (DESIGN.md §14), the driver's per-cell seeds and the fleet's
/// decision and stats checksums. The hash is incremental: start from
/// fnv1aInit(), feed bytes through fnv1aUpdate, and the running value is
/// the checksum at any prefix. A streamed hash over a
/// file's payload therefore equals fnv1aBytes over the same bytes, which is
/// what makes write-side (stream while serialising) and read-side (hash the
/// reloaded payload) checksums comparable.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SUPPORT_FNV_H
#define MEDLEY_SUPPORT_FNV_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace medley::support {

/// FNV-1a 64-bit offset basis.
constexpr uint64_t Fnv1aOffsetBasis = 14695981039346656037ULL;
/// FNV-1a 64-bit prime.
constexpr uint64_t Fnv1aPrime = 1099511628211ULL;

/// Starting value for an incremental FNV-1a hash.
constexpr uint64_t fnv1aInit() { return Fnv1aOffsetBasis; }

/// Folds one byte into a running FNV-1a hash.
constexpr uint64_t fnv1aUpdate(uint64_t Hash, unsigned char Byte) {
  return (Hash ^ static_cast<uint64_t>(Byte)) * Fnv1aPrime;
}

/// Folds the eight bytes of \p Word into a running FNV-1a hash, low byte
/// first, so a word's hash does not depend on the host's byte order.
constexpr uint64_t fnv1aWord(uint64_t Hash, uint64_t Word) {
  for (unsigned Byte = 0; Byte < 8; ++Byte)
    Hash = fnv1aUpdate(Hash, static_cast<unsigned char>(Word >> (Byte * 8)));
  return Hash;
}

/// Folds \p Size raw bytes into a running FNV-1a hash.
inline uint64_t fnv1aUpdate(uint64_t Hash, const void *Data, size_t Size) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I)
    Hash = fnv1aUpdate(Hash, Bytes[I]);
  return Hash;
}

/// FNV-1a over \p Size raw bytes.
inline uint64_t fnv1aBytes(const void *Data, size_t Size) {
  return fnv1aUpdate(fnv1aInit(), Data, Size);
}

/// FNV-1a over the bytes of \p Data.
inline uint64_t fnv1aString(const std::string &Data) {
  return fnv1aBytes(Data.data(), Data.size());
}

} // namespace medley::support

#endif // MEDLEY_SUPPORT_FNV_H
