// Offline decision-trace analyzer (versa_trace_report).
//
// Replays a --sched-trace CSV dump (sched_trace_csv, perf/sched_trace.h)
// without the run that produced it and reports the two things a policy
// comparison needs first: steal churn (how much placed work was re-homed
// by idle workers — high churn means the placement rule and the actual
// load disagree) and learning-phase coverage (how much of the placement
// volume was forced sampling, and how many distinct versions the sampling
// actually reached — a warm-started run shows zero). Everything is
// computed from the retained ring, so a saturated ring reports on the
// trailing window and says so.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sched/core/decision_trace.h"

namespace versa {

/// A parsed --sched-trace CSV dump: the `#` metadata plus the event rows.
struct SchedTraceDump {
  std::string policy;            ///< "# policy=..." metadata line
  std::uint64_t recorded = 0;    ///< events recorded (incl. overwritten)
  std::uint64_t dropped = 0;     ///< events overwritten by the ring
  std::size_t capacity = 0;      ///< ring capacity during the run
  /// True when the file carried the v2 per-tenant column; v1 files parse
  /// with every event attributed to kDefaultTenant.
  bool has_tenant_column = false;
  /// True when the file carried the v3 granularity columns (group,
  /// children); v1/v2 files parse with both fields zero.
  bool has_granularity_columns = false;
  std::vector<core::TraceEvent> events;  ///< retained rows, oldest first
};

/// Parse one CSV dump. Returns false (with a message in `error`) on a
/// malformed header, a malformed row, or an unknown event kind; metadata
/// lines it does not understand are ignored (forward compatibility).
bool parse_sched_trace_csv(std::istream& in, SchedTraceDump& dump,
                           std::string& error);

/// Aggregates derived from one dump.
struct TraceReport {
  std::uint64_t placements = 0;           ///< reliable-phase placements
  std::uint64_t learning_placements = 0;  ///< forced-sampling placements
  std::uint64_t steals = 0;
  std::uint64_t failures = 0;
  std::uint64_t completions = 0;

  /// steals / (placements + learning_placements); 0 when nothing placed.
  double steal_churn = 0.0;
  /// learning_placements / (placements + learning_placements).
  double learning_share = 0.0;

  /// Distinct (type, version) pairs that appear in any placement.
  std::size_t versions_placed = 0;
  /// Distinct (type, version) pairs that appear in a learning placement.
  std::size_t versions_sampled = 0;

  /// Per-worker (placements incl. learning, steals *by* that worker).
  std::map<WorkerId, std::pair<std::uint64_t, std::uint64_t>> per_worker;

  /// Per-tenant breakdown (service mode). Populated for every tenant that
  /// appears in the dump; rendered only when a non-default tenant shows up
  /// or the dump carried the tenant column.
  struct TenantBreakdown {
    std::uint64_t placements = 0;  ///< reliable + learning
    std::uint64_t steals = 0;      ///< this tenant's tasks re-homed
    std::uint64_t completions = 0;
    std::uint64_t failures = 0;
    double steal_churn = 0.0;      ///< steals / placements
    /// completions / retained-window span (0 when the span is zero).
    double throughput = 0.0;
  };
  std::map<TenantId, TenantBreakdown> per_tenant;

  /// Per-task-type breakdown. Multi-type runs — notably versa_taskbench,
  /// which declares one type per graph family — get their placement and
  /// completion volume separated by type; rendered only when at least two
  /// distinct types appear among the placements, so single-type dumps
  /// render exactly as before.
  struct TypeBreakdown {
    std::uint64_t placements = 0;  ///< reliable + learning
    std::uint64_t learning = 0;
    std::uint64_t steals = 0;
    std::uint64_t completions = 0;
    double steal_churn = 0.0;  ///< steals / placements
  };
  std::map<TaskTypeId, TypeBreakdown> per_type;

  /// Granularity-controller totals (v3+ dumps; all zero on v1/v2 CSVs).
  std::uint64_t splits = 0;
  std::uint64_t fuses = 0;
  std::uint64_t reversals = 0;

  /// Per-(type, data-set-size-group) granularity breakdown: how often the
  /// controller re-tiled or coalesced that group, how many child tasks the
  /// splits created, how many original submissions the fuses absorbed, and
  /// whether the CUSUM ever reversed the group's decision. Rendered only
  /// when any granularity event appears in the dump.
  struct GranularityBreakdown {
    std::uint64_t splits = 0;
    std::uint64_t fuses = 0;
    std::uint64_t reversals = 0;
    std::uint64_t children_created = 0;
    std::uint64_t tasks_fused = 0;
  };
  std::map<std::pair<TaskTypeId, std::uint64_t>, GranularityBreakdown>
      per_group;
};

TraceReport analyze_sched_trace(const SchedTraceDump& dump);

/// Human-readable report section for one dump (policy-named header,
/// totals, churn/coverage lines, per-worker table).
std::string render_trace_report(const SchedTraceDump& dump,
                                const TraceReport& report);

}  // namespace versa
