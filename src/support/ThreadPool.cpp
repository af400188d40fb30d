//===-- support/ThreadPool.cpp - Worker pool for experiment cells --------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/StringUtils.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

using namespace medley;
using namespace medley::support;

namespace {

/// True while this thread is executing a parallelFor body. Nested
/// parallelFor calls run inline instead of re-entering the pool: a worker
/// blocking on a nested region's completion could deadlock a fully busy
/// pool, and the cells this pool exists for are independent anyway.
thread_local bool InsideParallelBody = false;

} // namespace

unsigned ThreadPool::maxSaneJobs() { return 1024; }

unsigned ThreadPool::defaultJobs() {
  unsigned Hardware = std::thread::hardware_concurrency();
  if (Hardware == 0)
    Hardware = 1;
  const char *Env = std::getenv("MEDLEY_JOBS");
  if (!Env || *Env == '\0')
    return Hardware;
  // A malformed or absurd MEDLEY_JOBS (non-numeric, trailing junk, zero,
  // negative, overflow, or more workers than any sane machine) falls back
  // to the hardware concurrency instead of crashing or spawning a thread
  // per digit typo.
  std::optional<uint64_t> Jobs = parseUnsigned(Env, 1, maxSaneJobs());
  return Jobs ? static_cast<unsigned>(*Jobs) : Hardware;
}

ThreadPool::ThreadPool(unsigned Threads)
    : Size(Threads > 0 ? Threads : defaultJobs()) {
  // The caller participates in parallelFor, so a pool of size N needs only
  // N - 1 dedicated workers (and size 1 needs none at all).
  for (unsigned I = 1; I < Size; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  QueueReady.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueReady.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.back());
      Queue.pop_back();
    }
    Task();
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  if (Size == 1) {
    Task();
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Queue.push_back(std::move(Task));
  }
  QueueReady.notify_one();
}

/// Shared state of one parallelFor: the next unclaimed index, how many
/// bodies are still running, and the first captured exception.
struct ThreadPool::ForJob {
  std::atomic<size_t> Next{0};
  size_t N = 0;
  const std::function<void(size_t)> *Body = nullptr;

  std::mutex DoneMutex;
  std::condition_variable Done;
  size_t ActiveHelpers = 0;

  std::mutex ErrorMutex;
  std::exception_ptr FirstError;

  void run() {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      try {
        InsideParallelBody = true;
        (*Body)(I);
        InsideParallelBody = false;
      } catch (...) {
        InsideParallelBody = false;
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
  }
};

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  if (Size == 1 || N == 1 || InsideParallelBody) {
    // Inline sequential path: same iteration order, no queue traffic.
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }

  auto Job = std::make_shared<ForJob>();
  Job->N = N;
  Job->Body = &Body;

  // One helper task per worker that could usefully participate; each
  // helper (and the caller) pulls indices until the range is exhausted.
  size_t Helpers = std::min<size_t>(Workers.size(), N - 1);
  Job->ActiveHelpers = Helpers;
  for (size_t H = 0; H < Helpers; ++H)
    submit([Job] {
      Job->run();
      std::lock_guard<std::mutex> Lock(Job->DoneMutex);
      if (--Job->ActiveHelpers == 0)
        Job->Done.notify_all();
    });

  Job->run();

  std::unique_lock<std::mutex> Lock(Job->DoneMutex);
  Job->Done.wait(Lock, [&Job] { return Job->ActiveHelpers == 0; });

  if (Job->FirstError)
    std::rethrow_exception(Job->FirstError);
}
