#include "sim/event_queue.h"

#include <algorithm>

#include "common/check.h"

namespace versa::sim {

EventHandle EventQueue::schedule_at(Time when, EventFn fn) {
  VERSA_CHECK_MSG(when >= now_, "event scheduled in the past");
  VERSA_CHECK(fn != nullptr);
  const EventHandle handle = next_handle_++;
  heap_.push(Entry{when, next_seq_++, handle});
  callbacks_.emplace_back(handle, std::move(fn));
  ++live_;
  return handle;
}

EventHandle EventQueue::schedule_after(Duration delay, EventFn fn) {
  VERSA_CHECK_MSG(delay >= 0.0, "negative event delay");
  return schedule_at(now_ + delay, std::move(fn));
}

bool EventQueue::cancel(EventHandle handle) {
  auto it = std::find_if(callbacks_.begin(), callbacks_.end(),
                         [&](const auto& p) { return p.first == handle; });
  if (it == callbacks_.end()) return false;
  callbacks_.erase(it);
  --live_;
  return true;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    Entry top = heap_.top();
    heap_.pop();
    auto it = std::find_if(callbacks_.begin(), callbacks_.end(),
                           [&](const auto& p) { return p.first == top.handle; });
    if (it == callbacks_.end()) continue;  // cancelled
    EventFn fn = std::move(it->second);
    callbacks_.erase(it);
    --live_;
    now_ = top.when;
    fn();
    return true;
  }
  return false;
}

std::uint64_t EventQueue::run() {
  std::uint64_t executed = 0;
  while (step()) {
    ++executed;
  }
  return executed;
}

std::uint64_t EventQueue::run_until(Time limit) {
  std::uint64_t executed = 0;
  while (!heap_.empty()) {
    if (heap_.top().when > limit) break;
    if (step()) ++executed;
  }
  return executed;
}

bool EventQueue::empty() const { return live_ == 0; }

std::size_t EventQueue::pending() const { return live_; }

}  // namespace versa::sim
