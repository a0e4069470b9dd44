#include "perf/sched_trace.h"

#include <cstdio>
#include <fstream>

#include "common/string_util.h"
#include "perf/report.h"

namespace versa {

std::string sched_trace_table(const core::DecisionTrace& trace,
                              const VersionRegistry& registry,
                              const Machine& machine, std::size_t max_rows) {
  TablePrinter table({"time", "event", "task", "type/version", "worker",
                      "busy", "estimate", "penalty", "cands", "tenant"});
  std::vector<core::TraceEvent> events = trace.events();
  std::size_t start = 0;
  if (max_rows != 0 && events.size() > max_rows) {
    start = events.size() - max_rows;
  }
  for (std::size_t i = start; i < events.size(); ++i) {
    const core::TraceEvent& e = events[i];
    std::string name = e.type != kInvalidTaskType
                           ? registry.task_name(e.type)
                           : std::string("-");
    if (e.version != kInvalidVersion) {
      name += "/" + registry.version(e.version).name;
    }
    table.add_row({format_duration(e.time), to_string(e.kind),
                   std::to_string(e.task), name,
                   e.worker != kInvalidWorker ? machine.worker(e.worker).name
                                              : std::string("-"),
                   format_duration(e.busy_term), format_duration(e.mean_term),
                   format_duration(e.penalty_term),
                   std::to_string(e.candidates), std::to_string(e.tenant)});
  }
  std::string out = table.to_string();
  out += "events: " + std::to_string(trace.total()) + " recorded, " +
         std::to_string(trace.events().size()) + " retained, " +
         std::to_string(trace.dropped()) + " dropped (ring capacity " +
         std::to_string(trace.capacity()) + ")\n";
  return out;
}

std::string sched_trace_counters_json(const core::DecisionTrace& trace,
                                      const Machine& machine) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buffer[224];
  for (const core::TraceEvent& e : trace.events()) {
    if (e.worker == kInvalidWorker) continue;
    if (!first) out += ',';
    first = false;
    switch (e.kind) {
      case core::TraceEventKind::kPlacement:
      case core::TraceEventKind::kLearningPlacement:
      case core::TraceEventKind::kComplete:
        // Counter sample: the busy estimate the decision saw (placements:
        // before the push; completions: after the release).
        std::snprintf(buffer, sizeof(buffer),
                      "{\"name\":\"busy %s\",\"cat\":\"sched\",\"ph\":\"C\","
                      "\"ts\":%.3f,\"pid\":2,\"tid\":%u,"
                      "\"args\":{\"seconds\":%.9f}}",
                      machine.worker(e.worker).name.c_str(), e.time * 1e6,
                      e.worker, e.busy_term);
        break;
      case core::TraceEventKind::kSteal:
      case core::TraceEventKind::kFailure:
      case core::TraceEventKind::kSplit:
      case core::TraceEventKind::kFuse:
      case core::TraceEventKind::kReversal:
        std::snprintf(buffer, sizeof(buffer),
                      "{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"i\","
                      "\"s\":\"t\",\"ts\":%.3f,\"pid\":2,\"tid\":%u,"
                      "\"args\":{\"task\":%llu}}",
                      to_string(e.kind), e.time * 1e6, e.worker,
                      static_cast<unsigned long long>(e.task));
        break;
    }
    out += buffer;
  }
  out += "]}";
  return out;
}

bool write_sched_trace(const std::string& path,
                       const core::DecisionTrace& trace,
                       const Machine& machine) {
  std::ofstream file(path);
  if (!file) return false;
  file << sched_trace_counters_json(trace, machine);
  return static_cast<bool>(file);
}

std::string sched_trace_csv(const core::DecisionTrace& trace,
                            const std::string& policy) {
  // v5 keeps the v3 column set; the v4 prefetch event kinds are gone.
  // versa_trace_report still accepts v1/v2/v3 files.
  std::string out = "# versa-sched-trace v5\n";
  out += "# policy=" + policy + "\n";
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "# recorded=%llu dropped=%llu capacity=%zu\n",
                static_cast<unsigned long long>(trace.total()),
                static_cast<unsigned long long>(trace.dropped()),
                trace.capacity());
  out += buffer;
  out += "time,kind,task,type,version,worker,busy,estimate,penalty,"
         "candidates,tenant,group,children\n";
  for (const core::TraceEvent& e : trace.events()) {
    std::snprintf(buffer, sizeof(buffer),
                  "%.9e,%s,%llu,%u,%u,%u,%.9e,%.9e,%.9e,%u,%u,%llu,%u\n",
                  e.time, to_string(e.kind),
                  static_cast<unsigned long long>(e.task), e.type, e.version,
                  e.worker, e.busy_term, e.mean_term, e.penalty_term,
                  e.candidates, e.tenant,
                  static_cast<unsigned long long>(e.group), e.children);
    out += buffer;
  }
  return out;
}

bool write_sched_trace_csv(const std::string& path,
                           const core::DecisionTrace& trace,
                           const std::string& policy) {
  std::ofstream file(path);
  if (!file) return false;
  file << sched_trace_csv(trace, policy);
  return static_cast<bool>(file);
}

}  // namespace versa
