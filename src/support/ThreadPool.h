//===-- support/ThreadPool.h - Worker pool for experiment cells -*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool used to execute independent experiment
/// cells concurrently. Work is distributed by an atomic index grab
/// (dynamic self-scheduling), so uneven cell durations balance themselves
/// without an explicit work-stealing deque. The calling thread joins the
/// workers for the duration of a parallelFor, exceptions thrown by the
/// body are captured and rethrown on the caller, and a pool of size 1 runs
/// everything inline — the degenerate case is exactly a sequential loop.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SUPPORT_THREADPOOL_H
#define MEDLEY_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace medley::support {

/// Fixed-size pool of worker threads executing queued tasks.
class ThreadPool {
public:
  /// Creates a pool of size \p Threads (0 means defaultJobs()): Threads - 1
  /// worker threads, with the caller of parallelFor as the last one.
  explicit ThreadPool(unsigned Threads = 0);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of threads that execute work (including the caller during a
  /// parallelFor); always >= 1.
  unsigned size() const { return Size; }

  /// Runs \p Body(I) for every I in [0, N). Indices are handed out
  /// dynamically, one at a time, so long cells do not serialise behind
  /// short ones. Blocks until all N calls return. The first exception
  /// thrown by any invocation is rethrown here (remaining indices are
  /// still drained, their results discarded).
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// Enqueues a single fire-and-forget task for the size() - 1 workers,
  /// which take queued tasks newest first; a pool of size 1 runs it inline
  /// before returning. A task occupies its worker until it returns, so at
  /// most size() - 1 submitted tasks run at once; the rest wait queued.
  void submit(std::function<void()> Task);

  /// The process-wide default worker count: the MEDLEY_JOBS environment
  /// variable when parseUnsigned reads it as an integer in
  /// [1, maxSaneJobs()], otherwise the hardware concurrency (at least 1).
  /// Malformed values (non-numeric, trailing junk, zero, negative,
  /// overflow, absurdly large) fall back to the hardware concurrency.
  static unsigned defaultJobs();

  /// Upper bound accepted from MEDLEY_JOBS before falling back.
  static unsigned maxSaneJobs();

private:
  struct ForJob;

  void workerLoop();

  unsigned Size;
  std::vector<std::thread> Workers;
  std::mutex QueueMutex;
  std::condition_variable QueueReady;
  std::vector<std::function<void()>> Queue;
  bool Stopping = false;
};

} // namespace medley::support

#endif // MEDLEY_SUPPORT_THREADPOOL_H
