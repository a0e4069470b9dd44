// Chunked task storage.
//
// The task graph keeps every submitted Task for the whole run and hands
// out references that must stay valid while the graph grows (executors
// and schedulers hold Task& across submissions). A TaskStore keeps tasks
// in fixed chunks of kChunkTasks, so an address never moves, and it
// constructs each task in place when it is appended: one chunk allocation
// per kChunkTasks tasks instead of one per task (sizeof(Task) is above
// libstdc++'s deque node cutoff, which gave every task its own node).
// Indexing is a shift and a mask; iteration follows id order.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "task/task.h"

namespace versa {

class TaskStore {
 public:
  static constexpr std::size_t kChunkTasks = 64;

  TaskStore() = default;
  TaskStore(const TaskStore&) = delete;
  TaskStore& operator=(const TaskStore&) = delete;
  ~TaskStore() { reset(); }

  /// Append a default-constructed task, built in place, and return it.
  Task& emplace_back();

  Task& operator[](std::size_t i) {
    return chunks_[i / kChunkTasks]->tasks()[i % kChunkTasks];
  }
  const Task& operator[](std::size_t i) const {
    return chunks_[i / kChunkTasks]->tasks()[i % kChunkTasks];
  }

  std::size_t size() const { return size_; }

  /// Destroy every task and release the chunks; the store is then empty
  /// and ready for reuse.
  void reset();

  /// Range-for iteration in id order.
  class const_iterator {
   public:
    const Task& operator*() const { return (*store_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    friend class TaskStore;
    const_iterator(const TaskStore* store, std::size_t index)
        : store_(store), index_(index) {}
    const TaskStore* store_;
    std::size_t index_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  /// Raw storage for kChunkTasks tasks; only the first size_ slots of the
  /// store (across chunks) hold constructed tasks.
  struct Chunk {
    alignas(Task) unsigned char bytes[sizeof(Task) * kChunkTasks];
    Task* tasks() { return reinterpret_cast<Task*>(bytes); }
    const Task* tasks() const { return reinterpret_cast<const Task*>(bytes); }
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace versa
