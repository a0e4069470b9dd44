// Dependence-spec sanitizer (DESIGN.md §12): a vector-clock determinacy-
// race and spec-conformance checker over declared task accesses.
//
// Modes (VERSA_SANITIZE / versa_run --sanitize):
//   off   — the runtime does not construct the sanitizer at all: no shadow
//           map, no clocks, no witness logs, byte-identical figures.
//   spec  — per-task conformance only: bodies report touched spans through
//           versa::AccessWitness; at completion the checker flags witnessed
//           bytes outside the declared clauses (out-of-spec, an error) and
//           declared bytes never touched (over-declaration, a diagnostic
//           with wasted-transfer-bytes attribution). Tasks that report no
//           spans (uninstrumented bodies, sim-only virtual kernels) are
//           skipped — conformance is opt-in per body.
//   race  — spec plus cross-task determinacy-race detection: tasks get
//           happens-before clocks propagated along analyzer edges (and
//           split/fuse lineage), and a shadow-byte map records the
//           last writer/readers of every touched byte so any graph-
//           unordered conflicting pair is flagged with both task ids,
//           types, and the offending byte range. Declared clauses are
//           always ordered by the analyzer, so a declared-span race is an
//           oracle over the runtime's own dependence machinery; witnessed
//           out-of-spec spans are shadowed too, so an under-declared
//           access surfaces both as out-of-spec and as the race it is.
//
// Threading: plain data serialized by the runtime lock, like the analyzer
// and the profile table. Every hook runs under it: on_task_registered,
// on_task_absorbed and on_region_unregistered from the runtime API, and
// on_task_complete from the completion report, which carries the spans
// the body witnessed (an executor collects them off-lock into a local
// log and hands that over with port_complete). The result accessors are
// for quiescent use, after the waits.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sanitizer/sanitize_report.h"
#include "sanitizer/shadow_map.h"
#include "sanitizer/task_clock.h"
#include "task/access.h"
#include "task/task.h"

namespace versa::sanitize {

enum class SanitizeMode : std::uint8_t { kOff, kSpec, kRace };

const char* to_string(SanitizeMode mode);

/// Parse "off" | "spec" | "race" (the --sanitize / VERSA_SANITIZE value).
bool parse_sanitize_mode(const std::string& text, SanitizeMode& mode);

struct SanitizeConfig {
  SanitizeMode mode = SanitizeMode::kOff;
  /// Cap on retained violation records; excess increments stats().dropped.
  std::size_t max_violations = 10000;
};

class AccessSanitizer {
 public:
  explicit AccessSanitizer(SanitizeConfig config);

  SanitizeMode mode() const { return config_.mode; }

  // --- runtime hooks (under the runtime lock) ----------------------------
  /// A task registered with the analyzer: `preds` are its dependence
  /// edges, `hb_parent` the submitting task (kInvalidTask from the
  /// master thread). Split children pass their shell's parent.
  void on_task_registered(const Task& task, const std::vector<TaskId>& preds,
                          TaskId hb_parent);

  /// A fuse window absorbed `member` into `host` (lineage alias).
  void on_task_absorbed(TaskId member, TaskId host);

  /// A task completed: run conformance against `witness`, the spans its
  /// body reported (empty when it reported none), and, in race mode,
  /// shadow its declared + out-of-spec spans.
  void on_task_complete(const Task& task, const WitnessLog& witness);

  /// unregister_data: drop the region's shadow state.
  void on_region_unregistered(RegionId region);

  // --- results (quiescent: after waits) ----------------------------------
  std::vector<Violation> violations() const;
  SanitizeStats stats() const;
  /// Races + out-of-spec records (what non-zero exit codes key on).
  std::uint64_t error_count() const;
  bool write_csv_report(const std::string& path) const;
  /// Render the human-readable section to `os`.
  void render(std::ostream& os) const;

 private:
  void add_violation(Violation v);

  const SanitizeConfig config_;

  ClockTable clocks_;
  ShadowMap shadow_;
  /// Task type of every registered task (race reports name both parties'
  /// types; the prior task is long gone by the time its race surfaces).
  std::unordered_map<TaskId, TaskTypeId> types_;
  std::vector<Violation> violations_;
  /// Dedup: race pair (low id, high id, region) → index into violations_.
  struct PairKey {
    TaskId a;
    TaskId b;
    RegionId region;
    bool operator==(const PairKey& o) const {
      return a == o.a && b == o.b && region == o.region;
    }
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      std::size_t h = std::hash<TaskId>{}(k.a);
      h = h * 1315423911u ^ std::hash<TaskId>{}(k.b);
      h = h * 1315423911u ^ std::hash<RegionId>{}(k.region);
      return h;
    }
  };
  std::unordered_map<PairKey, std::size_t, PairKeyHash> race_index_;
  SanitizeStats stats_;
};

}  // namespace versa::sanitize
