#include "sched/core/granularity.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/check.h"

namespace versa::core {
namespace {

// Decision constants (DESIGN.md §11 lists them with their reasons).

/// Estimated per-task runtime overhead (submission + scheduling +
/// dispatch), seconds. Floors the split rule and drives the fuse rule.
constexpr double kOverheadEstimate = 20e-6;

/// Split rule: re-tile when the group mean exceeds
/// kSplitThreshold * max(busy spread, 32 * kOverheadEstimate).
constexpr double kSplitThreshold = 2.0;

/// Fuse rule: coalesce siblings when the group mean is below
/// kFuseThreshold * kOverheadEstimate.
constexpr double kFuseThreshold = 4.0;

/// Upper bound on the split factor, in auto and fixed mode alike.
constexpr std::uint32_t kMaxFactor = 8;

/// Reversal CUSUM: an outcome is "losing" when it exceeds the profiled
/// baseline by more than kReversalMargin (plus the per-task overhead the
/// decision added or saved); a cumulative excess above
/// kReversalThreshold * baseline reverses the decision for the group.
constexpr double kReversalMargin = 0.10;
constexpr double kReversalThreshold = 3.0;

/// Upper bound on a fuse recipe's window.
constexpr std::uint32_t kMaxFuseWindow = 4;

static_assert(kSplitThreshold > 0.0 && kOverheadEstimate > 0.0);
// decide() doubles the factor from 2, so a power-of-two cap is never
// overshot.
static_assert(kMaxFactor >= 2 && (kMaxFactor & (kMaxFactor - 1)) == 0);
static_assert(kMaxFuseWindow >= 2);

}  // namespace

const char* to_string(GranularityMode mode) {
  switch (mode) {
    case GranularityMode::kOff:
      return "off";
    case GranularityMode::kAuto:
      return "auto";
    case GranularityMode::kFixed:
      return "fixed";
  }
  return "?";
}

bool parse_granularity(const std::string& text, GranularityConfig& config) {
  if (text == "off") {
    config.mode = GranularityMode::kOff;
    return true;
  }
  if (text == "auto") {
    config.mode = GranularityMode::kAuto;
    return true;
  }
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text.c_str(), &end, 10);
  if (end == nullptr || end == text.c_str() || *end != '\0') return false;
  // Out-of-range factors would silently truncate through the uint32
  // member; reject them instead (strtoul saturates with ERANGE).
  if (errno == ERANGE ||
      value > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  if (value <= 1) {
    config.mode = GranularityMode::kOff;
  } else {
    config.mode = GranularityMode::kFixed;
    config.fixed_factor = static_cast<std::uint32_t>(value);
  }
  return true;
}

std::function<bool(const AccessList&, std::uint32_t, std::vector<AccessList>&)>
row_band_partition(std::uint64_t row_bytes) {
  VERSA_CHECK(row_bytes > 0);
  return [row_bytes](const AccessList& parent, std::uint32_t factor,
                     std::vector<AccessList>& parts) {
    if (parent.size() != 3 || factor < 2) return false;
    if (parent[0].length != parent[2].length) return false;
    if (parent[0].length % row_bytes != 0) return false;
    const std::uint64_t rows = parent[0].length / row_bytes;
    if (rows % factor != 0) return false;
    const std::uint64_t band_bytes = (rows / factor) * row_bytes;
    parts.clear();
    parts.reserve(factor);
    for (std::uint32_t r = 0; r < factor; ++r) {
      const std::uint64_t off = static_cast<std::uint64_t>(r) * band_bytes;
      Access a = parent[0], b = parent[1], c = parent[2];
      a.offset += off;
      a.length = band_bytes;
      c.offset += off;
      c.length = band_bytes;
      parts.push_back({a, b, c});
    }
    return true;
  };
}

GranularityController::GranularityController(GranularityConfig config)
    : config_(config) {
  VERSA_CHECK(config_.mode != GranularityMode::kOff);
}

void GranularityController::set_split_recipe(TaskTypeId type,
                                             SplitRecipe recipe) {
  VERSA_CHECK(recipe.child_type != kInvalidTaskType);
  VERSA_CHECK(recipe.partition != nullptr);
  split_recipes_[type] = std::move(recipe);
}

void GranularityController::set_fuse_recipe(TaskTypeId type,
                                            FuseRecipe recipe) {
  VERSA_CHECK(recipe.fused_type != kInvalidTaskType);
  VERSA_CHECK(recipe.can_fuse != nullptr && recipe.fuse != nullptr);
  VERSA_CHECK(recipe.window >= 2 && recipe.window <= kMaxFuseWindow);
  fuse_recipes_[type] = std::move(recipe);
}

const SplitRecipe* GranularityController::split_recipe(TaskTypeId type) const {
  auto it = split_recipes_.find(type);
  return it == split_recipes_.end() ? nullptr : &it->second;
}

const FuseRecipe* GranularityController::fuse_recipe(TaskTypeId type) const {
  auto it = fuse_recipes_.find(type);
  return it == fuse_recipes_.end() ? nullptr : &it->second;
}

std::uint64_t GranularityController::group_key(
    std::uint64_t data_set_size) const {
  return profile_ != nullptr ? profile_->group_key(data_set_size)
                             : data_set_size;
}

std::optional<Duration> GranularityController::baseline_mean(
    TaskTypeId type, std::uint64_t data_set_size) const {
  if (profile_ == nullptr) return std::nullopt;
  const std::optional<VersionId> fastest =
      profile_->fastest_version(type, data_set_size);
  if (!fastest) return std::nullopt;
  return profile_->mean(type, *fastest, data_set_size);
}

GranularityController::GroupState& GranularityController::group_state(
    TaskTypeId type, std::uint64_t data_set_size) {
  return groups_[{type, group_key(data_set_size)}];
}

const GranularityController::GroupState* GranularityController::find_group(
    TaskTypeId type, std::uint64_t data_set_size) const {
  auto it = groups_.find({type, group_key(data_set_size)});
  return it == groups_.end() ? nullptr : &it->second;
}

GranularityDecision GranularityController::decide(TaskTypeId type,
                                                  std::uint64_t data_set_size,
                                                  Duration spread,
                                                  std::uint32_t& factor) const {
  const SplitRecipe* split = split_recipe(type);
  const FuseRecipe* fuse = fuse_recipe(type);
  if (split == nullptr && fuse == nullptr) return GranularityDecision::kKeep;
  const GroupState* group = find_group(type, data_set_size);

  if (config_.mode == GranularityMode::kFixed) {
    // Ablation mode: re-tile everything a recipe covers by the fixed
    // factor, no profile consulted, no fusion, no reversal.
    if (split == nullptr || config_.fixed_factor < 2) {
      return GranularityDecision::kKeep;
    }
    factor = std::min(config_.fixed_factor, kMaxFactor);
    return GranularityDecision::kSplit;
  }

  // kAuto: no profiled mean for the group yet means we are still in the
  // learning phase at this granularity — leave the tiling alone so the
  // profile fills in at the original key first.
  const std::optional<Duration> mean = baseline_mean(type, data_set_size);
  if (!mean) return GranularityDecision::kKeep;

  if (fuse != nullptr && (group == nullptr || !group->fuse.reversed) &&
      *mean < kFuseThreshold * kOverheadEstimate) {
    return GranularityDecision::kFuse;
  }

  if (split != nullptr && (group == nullptr || !group->split.reversed)) {
    // The tile is "too coarse" when its own mean dominates the current
    // imbalance of the per-worker finish-time estimates: placing it
    // anywhere moves that worker's finish time far past the others, so
    // sub-tiles would let the slow devices share the work. The overhead
    // floor keeps a freshly-idle machine (spread 0) from splitting tasks
    // already near the overhead scale.
    const Duration floor = std::max(spread, 32.0 * kOverheadEstimate);
    if (*mean > kSplitThreshold * floor) {
      // Smallest power-of-two factor that brings the per-child mean under
      // the threshold, capped at kMaxFactor.
      factor = 2;
      while (factor < kMaxFactor && *mean / factor > kSplitThreshold * floor) {
        factor *= 2;
      }
      return GranularityDecision::kSplit;
    }
  }
  return GranularityDecision::kKeep;
}

std::optional<Duration> GranularityController::feedback_baseline(
    TaskTypeId type, std::uint64_t data_set_size) const {
  if (config_.mode != GranularityMode::kAuto) return std::nullopt;
  const std::optional<Duration> baseline =
      baseline_mean(type, data_set_size);
  if (!baseline || *baseline <= 0.0) return std::nullopt;
  return baseline;
}

bool GranularityController::cusum_step(Cusum& cusum, double excess,
                                       double limit) {
  if (cusum.reversed) return false;
  cusum.sum = std::max(0.0, cusum.sum + excess);
  if (cusum.sum <= limit) return false;
  cusum.reversed = true;
  cusum.sum = 0.0;
  ++stats_.reversals;
  return true;
}

bool GranularityController::record_split_outcome(TaskTypeId type,
                                                 std::uint64_t data_set_size,
                                                 Duration children_total,
                                                 std::uint32_t children) {
  ++stats_.splits;
  stats_.children_created += children;
  const std::optional<Duration> baseline =
      feedback_baseline(type, data_set_size);
  if (!baseline) return false;
  // CUSUM on the excess of the children's summed time over the profiled
  // single-task baseline (allowing the margin plus the overhead the extra
  // tasks genuinely cost). A split that pays off drains the accumulator;
  // one that keeps losing trips the alarm and is reversed for the group.
  const double excess =
      children_total - *baseline * (1.0 + kReversalMargin) -
      static_cast<double>(children) * kOverheadEstimate;
  return cusum_step(group_state(type, data_set_size).split, excess,
                    kReversalThreshold * *baseline);
}

bool GranularityController::record_fuse_outcome(TaskTypeId type,
                                                std::uint64_t data_set_size,
                                                Duration fused_total,
                                                std::uint32_t fused) {
  ++stats_.fuses;
  // tasks_fused counts *absorbed* submissions: a fused batch of N stands
  // for N - 1 tasks that never dispatched.
  stats_.tasks_fused += fused > 0 ? fused - 1 : 0;
  const std::optional<Duration> baseline =
      feedback_baseline(type, data_set_size);
  if (!baseline) return false;
  // Fusing pays when one fused execution beats `fused` separate ones
  // (which each also paid the per-task overhead the fusion saved).
  const double count = static_cast<double>(fused);
  const double separate =
      count * (*baseline * (1.0 + kReversalMargin) + kOverheadEstimate);
  return cusum_step(group_state(type, data_set_size).fuse,
                    fused_total - separate,
                    kReversalThreshold * *baseline * count);
}

}  // namespace versa::core
