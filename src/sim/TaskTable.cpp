//===-- sim/TaskTable.cpp - The simulator's task set ----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/TaskTable.h"

#include <cassert>

using namespace medley;
using namespace medley::sim;

void TaskTable::adopt(std::shared_ptr<Task> T) {
  assert(T && "null task");
  Task *Raw = T.get();
  // Capacities stick at the task-set high-water mark, so add/remove churn
  // at a stable population never reallocates.
  // medley-lint: allow(hotpath-escape) — amortized sticky column growth.
  Owners.push_back(std::move(T));
  Ptrs.push_back(Raw);
  ++Generation;
}

void TaskTable::remove(const Task *T) {
  // Tombstone instead of erase: nulling the slot releases the task now but
  // leaves the survivors in place, so k removals between ticks cost one
  // compaction pass rather than k element-shifting erases. The full scan
  // (no early break) keeps the historical semantics of removing every
  // occurrence of a pointer added more than once.
  for (size_t I = 0, N = Owners.size(); I < N; ++I)
    if (Ptrs[I] == T && Owners[I]) {
      Owners[I].reset();
      Ptrs[I] = nullptr;
      ++Tombstones;
      ++Generation;
    }
}

void TaskTable::compact() const {
  if (Tombstones < CompactionThreshold)
    return;
  // Stable in-place erase across both columns at once; survivors keep
  // insertion order so the step() reductions accumulate identically.
  size_t Out = 0;
  for (size_t I = 0, N = Owners.size(); I < N; ++I) {
    if (!Owners[I])
      continue;
    if (Out != I) {
      Owners[Out] = std::move(Owners[I]);
      Ptrs[Out] = Ptrs[I];
    }
    ++Out;
  }
  Owners.resize(Out);
  Ptrs.resize(Out);
  Tombstones = 0;
  // Compaction only drops tombstones (which every reduction already
  // skips), so the generation is intentionally NOT bumped: cached
  // reduction results stay valid.
}

const std::vector<std::shared_ptr<Task>> &TaskTable::owners() const {
  compact();
  return Owners;
}
