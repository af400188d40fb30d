//===-- bench/CountingAllocator.cpp - Heap allocation counter -------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Every operator new in the process bumps the counter. Sanitizer builds
// keep the stock allocator: ASan/TSan intercept malloc/new themselves and
// a user replacement produces alloc-dealloc mismatches. The counter then
// stays at zero, which is harmless because the perf gate only runs on
// plain builds.
//
//===----------------------------------------------------------------------===//

#include "CountingAllocator.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEDLEY_COUNTING_ALLOC 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MEDLEY_COUNTING_ALLOC 0
#else
#define MEDLEY_COUNTING_ALLOC 1
#endif
#else
#define MEDLEY_COUNTING_ALLOC 1
#endif

static std::atomic<size_t> GAllocCount{0};

size_t medley::bench::allocationCount() { return GAllocCount.load(); }

bool medley::bench::zeroAllocations(const char *What, size_t Count) {
  if (Count == 0)
    return true;
  std::cerr << "FAIL: " << Count << " heap allocations per " << What
            << ", expected 0\n";
  return false;
}

#if MEDLEY_COUNTING_ALLOC
static void *countedAlloc(std::size_t Size) {
  ++GAllocCount;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

static void *countedAlignedAlloc(std::size_t Size, std::size_t Align) {
  ++GAllocCount;
  std::size_t Rounded = (Size + Align - 1) / Align * Align;
  if (void *P = std::aligned_alloc(Align, Rounded ? Rounded : Align))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, static_cast<std::size_t>(Align));
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, static_cast<std::size_t>(Align));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
#endif // MEDLEY_COUNTING_ALLOC
