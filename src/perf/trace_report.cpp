#include "perf/trace_report.h"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <set>
#include <sstream>
#include <utility>

#include "perf/report.h"

namespace versa {
namespace {

/// Split one CSV row on commas (the dump never quotes fields).
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string::size_type start = 0;
  while (true) {
    const std::string::size_type comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

bool parse_kind(const std::string& text, core::TraceEventKind& kind) {
  for (const core::TraceEventKind candidate :
       {core::TraceEventKind::kPlacement,
        core::TraceEventKind::kLearningPlacement,
        core::TraceEventKind::kSteal, core::TraceEventKind::kFailure,
        core::TraceEventKind::kComplete, core::TraceEventKind::kSplit,
        core::TraceEventKind::kFuse, core::TraceEventKind::kReversal}) {
    if (text == core::to_string(candidate)) {
      kind = candidate;
      return true;
    }
  }
  return false;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !text.empty();
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty();
}

/// "# key=value key=value" metadata after the leading "# ".
void parse_metadata(const std::string& line, SchedTraceDump& dump) {
  std::istringstream words(line.substr(1));
  std::string word;
  while (words >> word) {
    const std::string::size_type eq = word.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = word.substr(0, eq);
    const std::string value = word.substr(eq + 1);
    std::uint64_t number = 0;
    if (key == "policy") {
      dump.policy = value;
    } else if (key == "recorded" && parse_u64(value, number)) {
      dump.recorded = number;
    } else if (key == "dropped" && parse_u64(value, number)) {
      dump.dropped = number;
    } else if (key == "capacity" && parse_u64(value, number)) {
      dump.capacity = static_cast<std::size_t>(number);
    }
    // Unknown keys (and the format-version line) are ignored.
  }
}

}  // namespace

bool parse_sched_trace_csv(std::istream& in, SchedTraceDump& dump,
                           std::string& error) {
  dump = SchedTraceDump{};
  std::string line;
  bool saw_header = false;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      parse_metadata(line, dump);
      continue;
    }
    if (!saw_header) {
      // The column header row. Require the leading column so arbitrary
      // text files fail loudly instead of parsing as zero events.
      if (line.compare(0, 5, "time,") != 0) {
        error = "line " + std::to_string(line_number) +
                ": expected the sched-trace column header";
        return false;
      }
      saw_header = true;
      continue;
    }
    const std::vector<std::string> fields = split_fields(line);
    // The v5 layout (sched_trace_csv); v3 files share it.
    if (fields.size() != 13) {
      error = "line " + std::to_string(line_number) +
              ": expected 13 fields, got " + std::to_string(fields.size());
      return false;
    }
    core::TraceEvent event;
    std::uint64_t task = 0;
    std::uint64_t type = 0;
    std::uint64_t version = 0;
    std::uint64_t worker = 0;
    std::uint64_t candidates = 0;
    std::uint64_t tenant = kDefaultTenant;
    std::uint64_t group = 0;
    std::uint64_t children = 0;
    if (!parse_double(fields[0], event.time) ||
        !parse_kind(fields[1], event.kind) || !parse_u64(fields[2], task) ||
        !parse_u64(fields[3], type) || !parse_u64(fields[4], version) ||
        !parse_u64(fields[5], worker) ||
        !parse_double(fields[6], event.busy_term) ||
        !parse_double(fields[7], event.mean_term) ||
        !parse_double(fields[8], event.penalty_term) ||
        !parse_u64(fields[9], candidates) || !parse_u64(fields[10], tenant) ||
        !parse_u64(fields[11], group) || !parse_u64(fields[12], children)) {
      error = "line " + std::to_string(line_number) + ": malformed field";
      return false;
    }
    event.task = task;
    event.type = static_cast<TaskTypeId>(type);
    event.version = static_cast<VersionId>(version);
    event.worker = static_cast<WorkerId>(worker);
    event.candidates = static_cast<std::uint32_t>(candidates);
    event.tenant = static_cast<TenantId>(tenant);
    event.group = group;
    event.children = static_cast<std::uint32_t>(children);
    dump.events.push_back(event);
  }
  if (!saw_header) {
    error = "no sched-trace column header found";
    return false;
  }
  return true;
}

TraceReport analyze_sched_trace(const SchedTraceDump& dump) {
  TraceReport report;
  std::set<std::pair<TaskTypeId, VersionId>> placed;
  std::set<std::pair<TaskTypeId, VersionId>> sampled;
  for (const core::TraceEvent& e : dump.events) {
    TraceReport::TenantBreakdown& tenant = report.per_tenant[e.tenant];
    switch (e.kind) {
      case core::TraceEventKind::kPlacement:
        ++report.placements;
        placed.insert({e.type, e.version});
        ++report.per_worker[e.worker].first;
        ++tenant.placements;
        ++report.per_type[e.type].placements;
        break;
      case core::TraceEventKind::kLearningPlacement:
        ++report.learning_placements;
        placed.insert({e.type, e.version});
        sampled.insert({e.type, e.version});
        ++report.per_worker[e.worker].first;
        ++tenant.placements;
        ++report.per_type[e.type].placements;
        ++report.per_type[e.type].learning;
        break;
      case core::TraceEventKind::kSteal:
        ++report.steals;
        ++report.per_worker[e.worker].second;
        ++tenant.steals;
        ++report.per_type[e.type].steals;
        break;
      case core::TraceEventKind::kFailure:
        ++report.failures;
        ++tenant.failures;
        break;
      case core::TraceEventKind::kComplete:
        ++report.completions;
        ++tenant.completions;
        ++report.per_type[e.type].completions;
        break;
      case core::TraceEventKind::kSplit:
        ++report.splits;
        ++report.per_group[{e.type, e.group}].splits;
        report.per_group[{e.type, e.group}].children_created += e.children;
        break;
      case core::TraceEventKind::kFuse:
        ++report.fuses;
        ++report.per_group[{e.type, e.group}].fuses;
        report.per_group[{e.type, e.group}].tasks_fused += e.children;
        break;
      case core::TraceEventKind::kReversal:
        ++report.reversals;
        ++report.per_group[{e.type, e.group}].reversals;
        break;
    }
  }
  // Per-tenant churn and completion throughput over the retained window.
  const double span = dump.events.empty()
                          ? 0.0
                          : dump.events.back().time - dump.events.front().time;
  for (auto& [id, tenant] : report.per_tenant) {
    (void)id;
    if (tenant.placements > 0) {
      tenant.steal_churn = static_cast<double>(tenant.steals) /
                           static_cast<double>(tenant.placements);
    }
    if (span > 0.0) {
      tenant.throughput = static_cast<double>(tenant.completions) / span;
    }
  }
  for (auto& [type, counts] : report.per_type) {
    (void)type;
    if (counts.placements > 0) {
      counts.steal_churn = static_cast<double>(counts.steals) /
                           static_cast<double>(counts.placements);
    }
  }
  const std::uint64_t total_placements =
      report.placements + report.learning_placements;
  if (total_placements > 0) {
    report.steal_churn =
        static_cast<double>(report.steals) / static_cast<double>(total_placements);
    report.learning_share = static_cast<double>(report.learning_placements) /
                            static_cast<double>(total_placements);
  }
  report.versions_placed = placed.size();
  report.versions_sampled = sampled.size();
  return report;
}

std::string render_trace_report(const SchedTraceDump& dump,
                                const TraceReport& report) {
  char buffer[256];
  std::string out = "policy: " + dump.policy + "\n";
  std::snprintf(buffer, sizeof(buffer),
                "events: %llu recorded, %zu retained, %llu dropped (ring "
                "capacity %zu)%s\n",
                static_cast<unsigned long long>(dump.recorded),
                dump.events.size(),
                static_cast<unsigned long long>(dump.dropped), dump.capacity,
                dump.dropped > 0 ? " — stats cover the trailing window" : "");
  out += buffer;
  std::snprintf(
      buffer, sizeof(buffer),
      "placements: %llu reliable + %llu learning, completions %llu, "
      "failures %llu\n",
      static_cast<unsigned long long>(report.placements),
      static_cast<unsigned long long>(report.learning_placements),
      static_cast<unsigned long long>(report.completions),
      static_cast<unsigned long long>(report.failures));
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "steal churn: %.1f%% (%llu steals / %llu placements)\n",
                report.steal_churn * 100.0,
                static_cast<unsigned long long>(report.steals),
                static_cast<unsigned long long>(report.placements +
                                                report.learning_placements));
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "learning coverage: %.1f%% of placements; %zu of %zu placed "
                "(type, version) pairs sampled\n",
                report.learning_share * 100.0, report.versions_sampled,
                report.versions_placed);
  out += buffer;
  if (!report.per_worker.empty()) {
    TablePrinter table({"worker", "placements", "steals-by"});
    for (const auto& [worker, counts] : report.per_worker) {
      table.add_row({std::to_string(worker), std::to_string(counts.first),
                     std::to_string(counts.second)});
    }
    out += table.to_string();
  }
  // Per-tenant breakdown: every row carries the tenant column.
  if (!report.per_tenant.empty()) {
    out += "per-tenant breakdown (completion throughput over the retained "
           "window):\n";
    TablePrinter table({"tenant", "placements", "steals", "completions",
                        "churn", "tasks/s"});
    for (const auto& [tenant, counts] : report.per_tenant) {
      std::snprintf(buffer, sizeof(buffer), "%.1f%%",
                    counts.steal_churn * 100.0);
      std::string churn = buffer;
      std::snprintf(buffer, sizeof(buffer), "%.3g", counts.throughput);
      table.add_row({std::to_string(tenant),
                     std::to_string(counts.placements),
                     std::to_string(counts.steals),
                     std::to_string(counts.completions), churn, buffer});
    }
    out += table.to_string();
  }
  // Per-type breakdown: rendered only when the placements span at least
  // two distinct task types (versa_taskbench's one-type-per-family runs;
  // single-type dumps render exactly as before).
  std::size_t types_placed = 0;
  for (const auto& [type, counts] : report.per_type) {
    (void)type;
    if (counts.placements > 0) ++types_placed;
  }
  if (types_placed >= 2) {
    out += "per-type breakdown:\n";
    TablePrinter table({"type", "placements", "learning", "steals",
                        "completions", "churn"});
    for (const auto& [type, counts] : report.per_type) {
      if (counts.placements == 0 && counts.completions == 0 &&
          counts.steals == 0) {
        continue;
      }
      std::snprintf(buffer, sizeof(buffer), "%.1f%%",
                    counts.steal_churn * 100.0);
      table.add_row({std::to_string(type), std::to_string(counts.placements),
                     std::to_string(counts.learning),
                     std::to_string(counts.steals),
                     std::to_string(counts.completions), buffer});
    }
    out += table.to_string();
  }
  // Per-group granularity breakdown: rendered only when the controller
  // actually did something (controller-off runs render exactly as before).
  if (!report.per_group.empty()) {
    std::snprintf(buffer, sizeof(buffer),
                  "granularity: %llu splits, %llu fuses, %llu reversals\n",
                  static_cast<unsigned long long>(report.splits),
                  static_cast<unsigned long long>(report.fuses),
                  static_cast<unsigned long long>(report.reversals));
    out += buffer;
    TablePrinter table({"type", "group", "splits", "fuses", "reversals",
                        "children", "fused"});
    for (const auto& [key, counts] : report.per_group) {
      table.add_row({std::to_string(key.first), std::to_string(key.second),
                     std::to_string(counts.splits),
                     std::to_string(counts.fuses),
                     std::to_string(counts.reversals),
                     std::to_string(counts.children_created),
                     std::to_string(counts.tasks_fused)});
    }
    out += table.to_string();
  }
  return out;
}

}  // namespace versa
