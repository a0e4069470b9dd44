// Decision trace — a ring-buffered event stream emitted by the scheduling
// core. Every placement (learning or reliable phase), steal, transient
// failure and completion is recorded with the terms that drove the
// decision (charged worker's busy time, the version mean, the locality
// penalty, and the number of candidate (version, worker) pairs evaluated),
// so a run can be audited after the fact without instrumenting a policy.
//
// Disabled by default and free when disabled (one branch per event).
// Plain data serialized by the runtime lock: every event is recorded from
// a runtime-locked path — placements, completions and failures from the
// scheduler calls, granularity decisions from submit and completion, and
// steals from Scheduler::task_started when the thief starts the task (the
// lock-free pop/steal path records nothing). Readers run after the waits.
// The ring keeps the last `capacity` events plus totals, bounding memory
// at PBPI scale; src/perf/sched_trace.h renders the buffer as a table and
// as the v5 CSV that versa_trace_report replays (versa_run --sched-trace).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace versa::core {

enum class TraceEventKind : std::uint8_t {
  kPlacement,          ///< reliable-phase placement (earliest executor &c.)
  kLearningPlacement,  ///< learning-phase forced sampling placement
  kSteal,              ///< same-kind work steal re-homed a queued task
  kFailure,            ///< transient failure released a running charge
  kComplete,           ///< completion released a running charge
  kSplit,              ///< granularity controller re-tiled a submission
  kFuse,               ///< granularity controller coalesced siblings
  kReversal,           ///< controller CUSUM reversed a split/fuse group
};

const char* to_string(TraceEventKind kind);

struct TraceEvent {
  Time time = 0.0;
  TaskId task = kInvalidTask;
  TaskTypeId type = kInvalidTaskType;
  VersionId version = kInvalidVersion;
  WorkerId worker = kInvalidWorker;
  /// Chosen worker's estimated busy time when the decision was made (for
  /// kComplete/kFailure: the busy time left after the release).
  Duration busy_term = 0.0;
  /// Estimated execution time charged (for kComplete: the measured
  /// duration that was recorded into the profile).
  Duration mean_term = 0.0;
  /// Extra placement cost (locality transfer estimate; zero elsewhere).
  Duration penalty_term = 0.0;
  /// (version, worker) pairs evaluated before choosing.
  std::uint32_t candidates = 0;
  TraceEventKind kind = TraceEventKind::kPlacement;
  /// Owning tenant (service mode; kDefaultTenant outside it). Appended
  /// last so existing aggregate initializers keep their field order.
  TenantId tenant = kDefaultTenant;
  /// Granularity events (kSplit/kFuse/kReversal): the data-set-size group
  /// key the decision was bucketed by, and the child-task count (children
  /// created by a split; original submissions folded by a fuse). Zero on
  /// every other kind. Appended after tenant so
  /// existing aggregate initializers keep their field order.
  std::uint64_t group = 0;
  std::uint32_t children = 0;
};

class DecisionTrace {
 public:
  /// Start recording into a ring of `capacity` events (>= 1); enable
  /// before the run.
  void enable(std::size_t capacity);
  bool enabled() const { return capacity_ != 0; }

  void record(const TraceEvent& event);

  /// Events recorded since enable() (including overwritten ones).
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  std::size_t capacity() const { return capacity_; }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace versa::core
