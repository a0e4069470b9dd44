// Discrete-event core: a virtual clock plus a time-ordered event queue.
//
// Ties are broken by insertion order so that simulations are deterministic
// regardless of the container's internal layout. The queue owns the event
// callbacks; cancelling is supported through handles because the transfer
// engine reschedules in-flight copies when links free up.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.h"

namespace versa::sim {

using EventFn = std::function<void()>;
using EventHandle = std::uint64_t;

constexpr EventHandle kInvalidEvent = 0;

class EventQueue {
 public:
  /// Schedule `fn` to run at absolute virtual time `when`.
  /// `when` must not precede the current clock.
  EventHandle schedule_at(Time when, EventFn fn);

  /// Schedule `fn` to run `delay` seconds after the current clock.
  EventHandle schedule_after(Duration delay, EventFn fn);

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled before.
  bool cancel(EventHandle handle);

  /// Pop and run the next event, advancing the clock. Returns false when
  /// the queue is empty (cancelled entries are skipped transparently).
  bool step();

  /// Run until the queue drains. Returns the number of events executed.
  std::uint64_t run();

  /// Run events until the clock would pass `limit`; events at exactly
  /// `limit` are executed. Returns events executed.
  std::uint64_t run_until(Time limit);

  Time now() const { return now_; }
  bool empty() const;
  std::size_t pending() const;

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// A pending event's callback. The generation advances whenever the
  /// slot is freed (run or cancelled), which turns the slot's heap entry
  /// and outstanding handle stale.
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
  };

  /// Free `slot` for reuse and invalidate its handle and heap entry.
  void release(std::uint32_t slot);
  /// Pop cancelled entries off the top of the heap.
  void drop_stale();

  // Callbacks live in reused slots indexed by the handle. step() costs
  // O(log n). cancel() frees the slot in O(1) and leaves its heap entry
  // behind, which a later pop discards as stale in O(log n).
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  Time now_ = 0.0;
  std::size_t live_ = 0;
};

}  // namespace versa::sim
