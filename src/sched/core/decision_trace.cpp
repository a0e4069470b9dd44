#include "sched/core/decision_trace.h"

#include "common/check.h"

namespace versa::core {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kPlacement:
      return "place";
    case TraceEventKind::kLearningPlacement:
      return "learn";
    case TraceEventKind::kSteal:
      return "steal";
    case TraceEventKind::kFailure:
      return "fail";
    case TraceEventKind::kComplete:
      return "done";
    case TraceEventKind::kSplit:
      return "split";
    case TraceEventKind::kFuse:
      return "fuse";
    case TraceEventKind::kReversal:
      return "revert";
  }
  return "?";
}

void DecisionTrace::enable(std::size_t capacity) {
  VERSA_CHECK(capacity >= 1);
  versa::LockGuard lock(mutex_);
  capacity_.store(capacity, std::memory_order_relaxed);
  ring_.clear();
  ring_.reserve(capacity < 4096 ? capacity : 4096);
  total_ = 0;
}

void DecisionTrace::disable() {
  versa::LockGuard lock(mutex_);
  capacity_.store(0, std::memory_order_relaxed);
  ring_.clear();
  ring_.shrink_to_fit();
  total_ = 0;
}

void DecisionTrace::record(const TraceEvent& event) {
  if (!enabled()) return;
  versa::LockGuard lock(mutex_);
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  if (capacity == 0) return;  // disabled between the check and the lock
  if (ring_.size() < capacity) {
    ring_.push_back(event);
  } else {
    ring_[total_ % capacity] = event;
  }
  ++total_;
}

std::uint64_t DecisionTrace::total() const {
  versa::LockGuard lock(mutex_);
  return total_;
}

std::uint64_t DecisionTrace::dropped() const {
  versa::LockGuard lock(mutex_);
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

std::vector<TraceEvent> DecisionTrace::events() const {
  versa::LockGuard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (total_ <= ring_.size()) {
    out = ring_;
  } else {
    const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
    const std::size_t head = total_ % capacity;  // oldest retained slot
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

}  // namespace versa::core
