#include "task/task_store.h"

#include <new>

namespace versa {

Task& TaskStore::emplace_back() {
  if (size_ == chunks_.size() * kChunkTasks) {
    // Default-initialised: the raw bytes are left as they are, each slot
    // is constructed when its task is appended.
    chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));
  }
  Task* slot = chunks_.back()->tasks() + size_ % kChunkTasks;
  Task* task = ::new (static_cast<void*>(slot)) Task();
  ++size_;
  return *task;
}

void TaskStore::reset() {
  for (std::size_t i = 0; i < size_; ++i) (*this)[i].~Task();
  chunks_.clear();
  size_ = 0;
}

}  // namespace versa
