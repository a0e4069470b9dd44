#include "sim/event_queue.h"

#include "common/check.h"

namespace versa::sim {

namespace {

// A handle packs (generation, slot); generations start at 1, so no live
// handle equals kInvalidEvent.
EventHandle pack(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<EventHandle>(generation) << 32) | slot;
}

}  // namespace

EventHandle EventQueue::schedule_at(Time when, EventFn fn) {
  VERSA_CHECK_MSG(when >= now_, "event scheduled in the past");
  VERSA_CHECK(fn != nullptr);
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push(Entry{when, next_seq_++, slot, s.generation});
  ++live_;
  return pack(slot, s.generation);
}

EventHandle EventQueue::schedule_after(Duration delay, EventFn fn) {
  VERSA_CHECK_MSG(delay >= 0.0, "negative event delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
  --live_;
}

bool EventQueue::cancel(EventHandle handle) {
  const auto slot = static_cast<std::uint32_t>(handle);
  const auto generation = static_cast<std::uint32_t>(handle >> 32);
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;
  }
  release(slot);
  return true;
}

void EventQueue::drop_stale() {
  while (!heap_.empty() &&
         slots_[heap_.top().slot].generation != heap_.top().generation) {
    heap_.pop();
  }
}

bool EventQueue::step() {
  drop_stale();
  if (heap_.empty()) return false;
  const Entry top = heap_.top();
  heap_.pop();
  EventFn fn = std::move(slots_[top.slot].fn);
  release(top.slot);
  now_ = top.when;
  fn();
  return true;
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
  for (drop_stale(); !heap_.empty() && heap_.top().when <= limit;
       drop_stale()) {
    step();
    ++executed;
  }
  return executed;
}

bool EventQueue::empty() const { return live_ == 0; }

std::size_t EventQueue::pending() const { return live_; }

}  // namespace versa::sim
