// Adaptive task granularity — the profile-guided split/fuse controller
// (DESIGN.md §11). HeSP showed that on heterogeneous machines scheduling
// and task *partitioning* must be co-optimized; this controller turns the
// per-data-set-size profile groups the paper's versioning scheduler
// already maintains into an active granularity policy:
//
//  * Too coarse — the profiled mean of a submission's (type, size) group
//    dwarfs the spread of the per-worker finish-time estimates (the tile
//    serializes the machine): re-tile it into child subtasks over
//    sub-regions of the declared accesses, via an app-registered
//    SplitRecipe.
//  * Too fine — the profiled mean is within a small multiple of the
//    per-task runtime overhead (dispatch cost dominates useful work):
//    coalesce compatible sibling submissions into one fused task, via an
//    app-registered FuseRecipe.
//
// The controller learns from both tilings. Child/fused observations are
// fed back against the *original* granularity key (the (type, size) group
// the submission would have landed in untouched), and a per-group CUSUM —
// the same change-detection shape as the profile drift path — reverses a
// decision that keeps losing to the profiled baseline.
//
// Thread-safety: decision and feedback state is externally serialized by
// the runtime lock (kLockRankRuntime), exactly like the ProfileTable it
// reads — decide() fires from Runtime::submit and record_*_outcome from
// port_complete, both under the lock. The controller takes no lock of its
// own and must never be reached from the lock-split pop/steal fast path.
// Reading the load-account spread (Scheduler::estimated_busy, rank 20)
// from under the runtime lock (rank 10) respects the lock order.
//
// Off by default: the runtime only constructs a controller when
// --granularity / VERSA_GRANULARITY asks for one, so fixed-seed paper
// figures are byte-identical with the feature disabled.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sched/profile_table.h"
#include "task/access.h"

namespace versa::core {

enum class GranularityMode : std::uint8_t {
  kOff,    ///< controller not constructed; zero behaviour change
  kAuto,   ///< profile-guided split/fuse with CUSUM reversal
  kFixed,  ///< always split by a fixed factor (ablation / figures)
};

const char* to_string(GranularityMode mode);

/// The two settable values. The decision constants (thresholds, overhead
/// estimate, factor cap, reversal CUSUM, fuse-window cap) are fixed in
/// granularity.cpp and listed in DESIGN.md §11.
struct GranularityConfig {
  GranularityMode mode = GranularityMode::kOff;

  /// kFixed: split every recipe-covered submission this many ways (capped
  /// at 8).
  std::uint32_t fixed_factor = 1;
};

/// Parse a --granularity / VERSA_GRANULARITY value: "off", "auto", or an
/// integer N (N <= 1 -> off, N > 1 -> fixed split by N). Returns false
/// (config untouched) on anything else.
bool parse_granularity(const std::string& text, GranularityConfig& config);

/// How an app re-tiles one task type. `partition` receives the parent's
/// resolved access list and must fill `parts` with `factor` child access
/// lists whose byte ranges cover the parent's exactly (the dependence
/// property test in tests/granularity_dep_property_test.cpp pins this
/// contract); returning false declines the split for this instance (e.g.
/// the factor does not divide the tile).
struct SplitRecipe {
  TaskTypeId child_type = kInvalidTaskType;
  std::function<bool(const AccessList&, std::uint32_t factor,
                     std::vector<AccessList>& parts)>
      partition;
};

/// Convenience partition for the common GEMM-like access shape
/// [A, B, C] where C row i depends only on A row i plus all of B (every
/// row-major C += / -= A * op(B) kernel): splits accesses 0 and 2 into
/// `factor` equal row bands of stride `row_bytes` and keeps access 1
/// whole. Declines (returns false) on a different shape, on mismatched
/// A/C lengths, or when the row count does not divide by the factor.
std::function<bool(const AccessList&, std::uint32_t, std::vector<AccessList>&)>
row_band_partition(std::uint64_t row_bytes);

/// How an app coalesces sibling submissions of one task type. `window`
/// (2 to 4) is how many submissions one fused task may absorb; `can_fuse`
/// says whether a new submission may join a window whose last member has
/// the given access list; `fuse` builds the fused task's access list from
/// the members' lists (order preserved).
struct FuseRecipe {
  TaskTypeId fused_type = kInvalidTaskType;
  std::uint32_t window = 2;
  std::function<bool(const AccessList& last, const AccessList& next)> can_fuse;
  std::function<AccessList(const std::vector<AccessList>&)> fuse;
};

enum class GranularityDecision : std::uint8_t { kKeep, kSplit, kFuse };

class GranularityController {
 public:
  explicit GranularityController(GranularityConfig config);

  /// Profile table the auto mode reads its group means from; may be null
  /// (non-versioning schedulers), which makes kAuto inert while kFixed
  /// keeps working. Borrowed, must outlive the controller.
  void set_profile(const ProfileTable* profile) { profile_ = profile; }

  void set_split_recipe(TaskTypeId type, SplitRecipe recipe);
  void set_fuse_recipe(TaskTypeId type, FuseRecipe recipe);
  const SplitRecipe* split_recipe(TaskTypeId type) const;
  const FuseRecipe* fuse_recipe(TaskTypeId type) const;

  /// Decide for one submission. `spread` is the max-min gap of the
  /// per-worker busy estimates at submission time (the finish-time index
  /// imbalance the split rule compares the mean against). On kSplit,
  /// `factor` is the chosen child count (>= 2).
  GranularityDecision decide(TaskTypeId type, std::uint64_t data_set_size,
                             Duration spread, std::uint32_t& factor) const;

  /// Feedback: all children of one split finished with `children_total`
  /// summed execution time. Returns true when this outcome tripped the
  /// CUSUM and reversed splitting for the group.
  bool record_split_outcome(TaskTypeId type, std::uint64_t data_set_size,
                            Duration children_total, std::uint32_t children);

  /// Feedback: a fused task standing for `fused` original submissions of
  /// (type, size) finished in `fused_total`. Returns true on reversal.
  bool record_fuse_outcome(TaskTypeId type, std::uint64_t data_set_size,
                           Duration fused_total, std::uint32_t fused);

  /// Group key the feedback is bucketed by: the profile's grouping when a
  /// table is attached, the raw size otherwise.
  std::uint64_t group_key(std::uint64_t data_set_size) const;

  struct Stats {
    std::uint64_t splits = 0;
    std::uint64_t fuses = 0;
    std::uint64_t reversals = 0;
    std::uint64_t children_created = 0;
    std::uint64_t tasks_fused = 0;  ///< original submissions absorbed
  };
  const Stats& stats() const { return stats_; }

  const GranularityConfig& config() const { return config_; }

 private:
  /// One reversal detector: the cumulative excess of a decision's outcomes
  /// over what keeping the original tiling would have cost.
  struct Cusum {
    double sum = 0.0;
    bool reversed = false;
  };
  struct GroupState {
    Cusum split;
    Cusum fuse;
  };

  /// Mean of the group's fastest known version at the original key —
  /// the baseline both the decision and the reversal compare against.
  std::optional<Duration> baseline_mean(TaskTypeId type,
                                        std::uint64_t data_set_size) const;

  /// The baseline an auto-mode outcome is judged against, or nullopt when
  /// no CUSUM step applies (not auto mode, or no positive baseline yet).
  std::optional<Duration> feedback_baseline(TaskTypeId type,
                                            std::uint64_t data_set_size) const;

  /// Adds `excess` to the detector (floored at 0) and reverses the
  /// decision once the sum passes `limit`. Returns true on that reversal.
  bool cusum_step(Cusum& cusum, double excess, double limit);

  GroupState& group_state(TaskTypeId type, std::uint64_t data_set_size);
  const GroupState* find_group(TaskTypeId type,
                               std::uint64_t data_set_size) const;

  GranularityConfig config_;
  const ProfileTable* profile_ = nullptr;
  std::map<TaskTypeId, SplitRecipe> split_recipes_;
  std::map<TaskTypeId, FuseRecipe> fuse_recipes_;
  std::map<std::pair<TaskTypeId, std::uint64_t>, GroupState> groups_;
  Stats stats_;
};

}  // namespace versa::core
