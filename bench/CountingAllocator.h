//===-- bench/CountingAllocator.h - Heap allocation counter -----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A counting replacement for the global operator new/delete, so a bench
/// can assert how many heap allocations a steady-state tick or decision
/// performs (the gates are zero). CountingAllocator.cpp replaces
/// the allocator of every binary it is linked into, so it is linked only
/// into the benches that gate allocation counts, never into BenchUtil.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_BENCH_COUNTINGALLOCATOR_H
#define MEDLEY_BENCH_COUNTINGALLOCATOR_H

#include <cstddef>

namespace medley::bench {

/// Heap allocations made through operator new so far in this process.
/// Stays 0 in ASan and TSan builds, which keep the stock allocator.
size_t allocationCount();

/// The zero-allocation gate of the smoke runs: true when \p Count is 0,
/// otherwise prints the count of allocations per \p What and returns
/// false. ASan and TSan builds count nothing, so they pass it by
/// construction; every other build enforces it.
bool zeroAllocations(const char *What, size_t Count);

} // namespace medley::bench

#endif // MEDLEY_BENCH_COUNTINGALLOCATOR_H
