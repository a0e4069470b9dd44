// TaskVersionSet profiling tables — the data structure of the paper's
// Table I. For every task type, per *data-set-size group*, per version:
// the number of executions and their mean execution time.
//
// Grouping policy: the paper groups by exact data-set size and lists
// range-based grouping as future work (§VII #2); both are implemented and
// selectable. The mean is arithmetic by default with an EMA option
// (footnote 3).
//
// Layout: each (type, size group) pair is a *cell* with a dense CellId,
// created lazily the first time something names it. Cells live in a
// vector; a cell holds its per-version stats in a vector indexed by the
// version's ordinal (its position in registry.versions(type)), grown on
// demand so a version registered after the cell exists still gets an
// entry. Each (cell, version) entry carries a dense PriceId, the load
// account's price bucket for that mean. The hot path resolves a task's
// cell once (resolve_cell, one hash lookup) and then asks by cell; the
// (type, version, size) API looks the cell up on every call and serves
// cold callers: the profile store, hints, benches and tests.
//
// Thread-safety: externally synchronized by the runtime lock
// (kLockRankRuntime). The table is policy-decision state — record() fires
// from task_completed and mean() from placement, both of which the runtime
// serializes — so it carries no lock of its own; the lock-split fast path
// (pop/steal) never touches it. The mean listener it fires is the one
// bridge to locked state: VersioningScheduler's listener re-prices the
// load account at once, under the account mutex (DESIGN.md §8, §9).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/types.h"
#include "profile/drift_detector.h"
#include "task/version_registry.h"

namespace versa {

enum class SizeGrouping : std::uint8_t {
  kExact,  ///< one group per distinct data-set size (the paper's choice)
  kRange,  ///< sizes within a configurable ratio share a group (§VII)
};

struct ProfileConfig {
  /// λ — minimum executions of every version of a group before the group
  /// is considered reliable (user-configurable, paper footnote 4).
  std::uint32_t lambda = 3;
  MeanKind mean_kind = MeanKind::kArithmetic;
  double ema_alpha = 0.25;
  SizeGrouping grouping = SizeGrouping::kExact;
  /// For kRange: sizes s1, s2 share a group iff their log-ratio bucket
  /// matches; 1.25 means roughly ±12 % of data size join one group.
  double range_ratio = 1.25;
  /// Change-point detection on reliable groups: a sustained shift of a
  /// version's observations away from its stored mean resets that version
  /// back into the learning phase (see profile/drift_detector.h).
  DriftConfig drift;
};

class ProfileTable {
 public:
  ProfileTable(const VersionRegistry& registry, ProfileConfig config);

  /// Map a data-set size to its group key under the grouping policy.
  std::uint64_t group_key(std::uint64_t data_set_size) const;

  /// The cell of (type, the size's group), created if new: one hash
  /// lookup. Callers on the hot path keep the id (Task::profile_cell).
  CellId resolve_cell(TaskTypeId type, std::uint64_t data_set_size);
  TaskTypeId cell_type(CellId cell) const { return cells_[cell].type; }
  std::uint64_t cell_group_key(CellId cell) const {
    return cells_[cell].group_key;
  }

  /// The price id of `version`'s entry in `cell`, created if new.
  PriceId price_id(CellId cell, const TaskVersion& version);

  /// (type, size) -> cell hash lookups so far, by every entry point
  /// (diagnostic: the lookup budget test bounds them per task).
  std::uint64_t cell_lookups() const { return cell_lookups_; }

  /// Record one measured execution.
  void record(TaskTypeId type, VersionId version, std::uint64_t data_set_size,
              Duration measured);
  void record(CellId cell, const TaskVersion& version, Duration measured);

  /// Mean execution time of a version for the size's group, if any runs
  /// were recorded.
  std::optional<Duration> mean(TaskTypeId type, VersionId version,
                               std::uint64_t data_set_size) const;
  std::optional<Duration> mean(CellId cell, const TaskVersion& version) const {
    const VersionStats* stats = find(cell, version);
    if (stats == nullptr || stats->mean.empty()) return std::nullopt;
    return stats->mean.mean();
  }

  std::uint64_t count(TaskTypeId type, VersionId version,
                      std::uint64_t data_set_size) const;
  std::uint64_t count(CellId cell, const TaskVersion& version) const {
    const VersionStats* stats = find(cell, version);
    return stats == nullptr ? 0 : stats->mean.count();
  }

  /// Sample variance of the recorded durations (0 below two samples).
  double variance(TaskTypeId type, VersionId version,
                  std::uint64_t data_set_size) const;

  /// Reliable-information test: every registered version of `type` has run
  /// at least λ times for this size's group.
  bool reliable(TaskTypeId type, std::uint64_t data_set_size) const;

  /// Fastest version of the group (lowest mean); nullopt before any runs.
  std::optional<VersionId> fastest_version(TaskTypeId type,
                                           std::uint64_t data_set_size) const;

  /// Inject external information (hints files, §VII #3): seeds the version
  /// entry with a given mean and count.
  void prime(TaskTypeId type, VersionId version, std::uint64_t group_key,
             Duration mean, std::uint64_t count);

  /// Warm start from a persisted store: overwrite the entry's accumulator
  /// state exactly (mean, count, raw second moment), arming the drift
  /// detector against the restored mean when the entry is reliable.
  void restore(TaskTypeId type, VersionId version, std::uint64_t group_key,
               Duration mean, std::uint64_t count, double m2);

  /// Forget one version's history for a group (drift relearning, tests).
  void reset_version(TaskTypeId type, VersionId version,
                     std::uint64_t group_key);

  /// Drift alarms raised so far, in detection order.
  struct DriftEvent {
    TaskTypeId type;
    std::uint64_t group_key;
    VersionId version;
    Duration stale_mean;    ///< the mean the detector was armed against
    Duration observed;      ///< the observation that raised the alarm
    std::uint64_t at_count; ///< samples accumulated when the alarm fired
  };
  const std::vector<DriftEvent>& drift_events() const { return drift_events_; }

  const ProfileConfig& config() const { return config_; }

  /// Observer for mean movement: fired with the entry's price id whenever
  /// a version's mean for a group changes — new measurement, hint prime,
  /// warm-start restore, or a reset (drift relearning), in which case the
  /// mean is nullopt. The scheduling core's LoadAccount hooks in here to
  /// re-price the busy charges of already-queued tasks instead of
  /// rescanning queues.
  using MeanListener = std::function<void(PriceId, std::optional<Duration>)>;
  void set_mean_listener(MeanListener listener);

  /// Best estimate for a version whose (type, size) group has no mean yet:
  /// the mean of the nearest size group (by group key) that recorded this
  /// version, if any. Used by the busy-accounting fallback chain so
  /// unknown-mean tasks do not get charged as free. Distance is the
  /// absolute group-key difference; when two groups are exactly
  /// equidistant (a query at the midpoint), the SMALLER key wins — pinned
  /// by ProfileTableNearestGroup tests, so persisted-profile consumers can
  /// rely on it staying deterministic.
  std::optional<Duration> nearest_group_mean(TaskTypeId type, VersionId version,
                                             std::uint64_t group_key) const;

  /// Table I-style ASCII dump, in (type, group, version) order.
  std::string dump() const;

  /// Iteration hook for the profile-store writer: (type, group_key, version,
  /// mean, count) per entry, in (type, group, version) order.
  struct Entry {
    TaskTypeId type;
    std::uint64_t group_key;
    VersionId version;
    Duration mean;
    std::uint64_t count;
    double m2;  ///< raw second moment (see RunningMean::m2)
  };
  std::vector<Entry> entries() const;

  /// Groups holding at least one recorded, primed or restored entry.
  std::size_t group_count() const;

 private:
  struct VersionStats {
    RunningMean mean;
    CusumDetector detector;
    PriceId price;
    /// Recorded, primed or restored at least once (a reset keeps it):
    /// the entries dump(), entries() and nearest_group_mean() see.
    bool listed = false;
    VersionStats(const ProfileConfig& cfg, PriceId price_id)
        : mean(cfg.mean_kind, cfg.ema_alpha),
          detector(cfg.drift),
          price(price_id) {}
  };
  struct Cell {
    TaskTypeId type;
    std::uint64_t group_key;
    /// Indexed by TaskVersion::ordinal; shorter than the type's version
    /// list when versions were registered after the cell was made.
    std::vector<VersionStats> versions;
    bool listed() const;  ///< some entry is listed
  };
  struct CellKeyHash {
    std::size_t operator()(const std::pair<TaskTypeId, std::uint64_t>& key)
        const {
      return std::hash<std::uint64_t>{}(key.second * 0x9e3779b97f4a7c15ull ^
                                        key.first);
    }
  };

  const VersionRegistry& registry_;
  ProfileConfig config_;
  std::vector<Cell> cells_;
  std::unordered_map<std::pair<TaskTypeId, std::uint64_t>, CellId, CellKeyHash>
      cell_index_;
  PriceId next_price_ = 0;
  mutable std::uint64_t cell_lookups_ = 0;
  std::vector<DriftEvent> drift_events_;
  MeanListener mean_listener_;

  /// The cell of (type, group key), created if new; find_cell answers
  /// kNoCell instead. Each counts one lookup.
  CellId cell_at(TaskTypeId type, std::uint64_t group_key);
  CellId find_cell(TaskTypeId type, std::uint64_t group_key) const;

  /// The entry of `version` in `cell`, created if new; `list` marks it
  /// listed (a record, prime or restore).
  VersionStats& entry(CellId cell, const TaskVersion& version, bool list);
  const VersionStats* find(CellId cell, const TaskVersion& version) const {
    const Cell& c = cells_[cell];
    VERSA_DCHECK(version.type == c.type);
    return version.ordinal < c.versions.size() ? &c.versions[version.ordinal]
                                               : nullptr;
  }
  const VersionStats* find(TaskTypeId type, VersionId version,
                           std::uint64_t data_set_size) const;

  void notify_mean(const VersionStats& stats) const;
  /// Listed cells' ids in (type, group key) order.
  std::vector<CellId> sorted_cells() const;
};

}  // namespace versa
