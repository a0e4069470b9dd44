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
  capacity_ = capacity;
  ring_.clear();
  ring_.reserve(capacity < 4096 ? capacity : 4096);
  total_ = 0;
}

void DecisionTrace::record(const TraceEvent& event) {
  if (!enabled()) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[total_ % capacity_] = event;
  }
  ++total_;
}

std::vector<TraceEvent> DecisionTrace::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (total_ <= ring_.size()) {
    out = ring_;
  } else {
    const std::size_t head = total_ % capacity_;  // oldest retained slot
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

}  // namespace versa::core
