//===-- bench/CountingAllocator.h - Heap allocation counter -----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A counting replacement for the global operator new/delete, so a bench
/// can assert how many heap allocations a steady-state tick, decision or
/// acquire performs (the gates are zero). CountingAllocator.cpp replaces
/// the allocator of every binary it is linked into, so it is linked only
/// into the benches that gate allocation counts, never into BenchUtil.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_BENCH_COUNTINGALLOCATOR_H
#define MEDLEY_BENCH_COUNTINGALLOCATOR_H

#include <cstddef>

namespace medley::bench {

/// Heap allocations made through operator new so far in this process.
/// Stays 0 in sanitizer builds, which keep the stock allocator.
size_t allocationCount();

} // namespace medley::bench

#endif // MEDLEY_BENCH_COUNTINGALLOCATOR_H
