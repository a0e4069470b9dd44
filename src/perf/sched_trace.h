// Rendering for the scheduling core's decision trace (versa_run
// --sched-trace): a column-aligned table of the most recent decisions with
// the terms that drove them, and the one on-disk schema, a v5 CSV that
// versa_trace_report replays — so "why did this task land there" is
// answerable after the run without instrumenting a policy.
#pragma once

#include <string>

#include "machine/machine.h"
#include "sched/core/decision_trace.h"
#include "task/version_registry.h"

namespace versa {

/// ASCII table of the last `max_rows` retained events (0 = all retained),
/// oldest first, with a totals line (recorded / retained / dropped).
std::string sched_trace_table(const core::DecisionTrace& trace,
                              const VersionRegistry& registry,
                              const Machine& machine,
                              std::size_t max_rows = 0);

/// Full-fidelity CSV dump of the retained events, oldest first: `#`
/// metadata lines (format version, policy name, ring totals), a header
/// row, then one row per TraceEvent with every field round-tripped (%.9e
/// doubles). This dump is what the offline analyzer (versa_trace_report,
/// src/perf/trace_report.h) replays.
std::string sched_trace_csv(const core::DecisionTrace& trace,
                            const std::string& policy);

/// Write sched_trace_csv() to `path`. False on I/O failure.
bool write_sched_trace_csv(const std::string& path,
                           const core::DecisionTrace& trace,
                           const std::string& policy);

}  // namespace versa
