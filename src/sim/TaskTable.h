//===-- sim/TaskTable.h - The simulator's task set --------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's task set: owners plus a raw-pointer column the tick
/// loop walks to read and advance each task's TaskState in place, a
/// sorted insertion-sequence column that removal searches, and a
/// generation counter that tells the loop when any task's scheduling
/// quantities or the membership changed, so it can reuse last tick's
/// reduction results bit-for-bit (DESIGN.md §13).
///
/// Iteration order is insertion order throughout: the per-tick FP
/// reductions accumulate in task order, so removal tombstones a slot and
/// compaction erases stably. A tombstoned (null) slot is never visible
/// outside the table's own iteration helpers.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_TASKTABLE_H
#define MEDLEY_SIM_TASKTABLE_H

#include "sim/Task.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace medley::sim {

/// Every task of a simulation, in insertion order.
class TaskTable {
public:
  /// Tombstone count at which the next compact() call actually compacts.
  /// Hoisted here (rather than re-derived at each call site) so every
  /// observation point — step, accessors, size queries — agrees on when
  /// the erase pass runs. 1 keeps the historical behaviour: nulls never
  /// survive past the next observation.
  static constexpr size_t CompactionThreshold = 1;

  TaskTable() = default;
  /// Frees the slot of every task still held, so another table may adopt
  /// it.
  ~TaskTable();
  TaskTable(const TaskTable &) = delete;
  TaskTable &operator=(const TaskTable &) = delete;

  /// Appends \p T, which no table may hold already, under the next
  /// sequence number. Bumps the generation.
  void adopt(std::shared_ptr<Task> T);

  /// Tombstones \p T's slot (releases the task now, compacts later) and
  /// bumps the generation; a no-op when this table does not hold \p T.
  /// The slot is found by binary search on \p T's sequence number.
  void remove(const Task *T);

  /// Erases tombstoned slots, preserving insertion order, once the count
  /// reaches CompactionThreshold; cheap no-op otherwise.
  void compact() const;

  /// Live (non-tombstoned) task count.
  size_t size() const { return Owners.size() - Tombstones; }

  /// Monotonic counter bumped whenever the membership or a member's
  /// threads, memory demand, working set or finished flag changes. Equal
  /// generations guarantee bit-identical reduction inputs, so per-tick
  /// reductions cached under a generation can be reused.
  uint64_t generation() const { return Generation; }

  /// Records that a member's scheduling quantities changed.
  void bumpGeneration() { ++Generation; }

  /// Raw slot count including tombstones — the iteration bound for ptr().
  /// Slots with ptr(I) == nullptr are tombstones.
  size_t slots() const { return Owners.size(); }

  Task *ptr(size_t I) const { return Ptrs[I]; }

  /// The owning pointers in insertion order, compacted first so callers
  /// never see a tombstone.
  const std::vector<std::shared_ptr<Task>> &owners() const;

private:
  /// Insertion-order owners; a null entry is a tombstone left by remove().
  /// Mutable (with Ptrs and Seqs) so const accessors can compact lazily.
  mutable std::vector<std::shared_ptr<Task>> Owners;
  mutable std::vector<Task *> Ptrs;
  /// Each slot's Task::TableSeq, ascending because slots stay in
  /// insertion order.
  mutable std::vector<uint64_t> Seqs;
  mutable size_t Tombstones = 0;
  uint64_t NextSeq = 0;
  uint64_t Generation = 0;
};

} // namespace medley::sim

#endif // MEDLEY_SIM_TASKTABLE_H
