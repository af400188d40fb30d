//===-- sim/TaskTable.cpp - The simulator's task set ----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/TaskTable.h"

#include <algorithm>
#include <cassert>

using namespace medley;
using namespace medley::sim;

TaskTable::~TaskTable() {
  for (Task *T : Ptrs)
    if (T)
      T->TableSeq = Task::NoSeq;
}

void TaskTable::adopt(std::shared_ptr<Task> T) {
  assert(T && "null task");
  assert(T->TableSeq == Task::NoSeq && "task is already in a table");
  Task *Raw = T.get();
  Raw->TableSeq = NextSeq++;
  // Capacities stick at the task-set high-water mark, so add/remove churn
  // at a stable population never reallocates.
  Owners.push_back(std::move(T));
  Ptrs.push_back(Raw);
  Seqs.push_back(Raw->TableSeq);
  ++Generation;
}

void TaskTable::remove(const Task *T) {
  // Tombstone instead of erase: nulling the slot releases the task now but
  // leaves the survivors in place, so k removals between ticks cost one
  // compaction pass rather than k element-shifting erases. The pointer
  // check rejects a task this table does not hold (another table's, or
  // none), whose sequence number may still occur here.
  auto It = std::lower_bound(Seqs.begin(), Seqs.end(), T->TableSeq);
  size_t Slot = static_cast<size_t>(It - Seqs.begin());
  if (It == Seqs.end() || *It != T->TableSeq || Ptrs[Slot] != T)
    return;
  Ptrs[Slot]->TableSeq = Task::NoSeq;
  Owners[Slot].reset();
  Ptrs[Slot] = nullptr;
  ++Tombstones;
  ++Generation;
}

void TaskTable::compact() const {
  if (Tombstones < CompactionThreshold)
    return;
  // Stable in-place erase across the three columns at once; survivors
  // keep insertion order so the step() reductions accumulate identically
  // and Seqs stays sorted. Only the table's own columns are written.
  size_t Out = 0;
  for (size_t I = 0, N = Owners.size(); I < N; ++I) {
    if (!Owners[I])
      continue;
    if (Out != I) {
      Owners[Out] = std::move(Owners[I]);
      Ptrs[Out] = Ptrs[I];
      Seqs[Out] = Seqs[I];
    }
    ++Out;
  }
  Owners.resize(Out);
  Ptrs.resize(Out);
  Seqs.resize(Out);
  Tombstones = 0;
  // Compaction only drops tombstones (which every reduction already
  // skips), so the generation is intentionally NOT bumped: cached
  // reduction results stay valid.
}

const std::vector<std::shared_ptr<Task>> &TaskTable::owners() const {
  compact();
  return Owners;
}
