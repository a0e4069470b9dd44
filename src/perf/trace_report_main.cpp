// versa_trace_report — offline analyzer for --sched-trace CSV dumps.
//
//   versa_run --scheduler versioning --sched-trace run.csv ...
//   versa_trace_report run.csv [more.csv ...]
//
// Prints, per dump, the totals plus steal churn and learning-phase
// coverage; with several dumps a final comparison table lines the
// policies up side by side.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <iostream>

#include "perf/report.h"
#include "perf/trace_report.h"
#include "sanitizer/sanitize_report.h"

namespace {

void print_usage() {
  std::fprintf(
      stderr,
      "usage: versa_trace_report <trace.csv> [more.csv ...]\n"
      "       versa_trace_report --sanitize-report <sanitize.csv> [...]\n"
      "\n"
      "Analyzes decision-trace CSV dumps written by versa_run\n"
      "--sched-trace <path>. Reports steal churn and learning-phase\n"
      "coverage per policy.\n"
      "\n"
      "--sanitize-report replays dependence-spec sanitizer findings\n"
      "written by versa_run --sanitize-csv <path>; exits non-zero when\n"
      "the replayed report contains race or out-of-spec records.\n");
}

// Replays one or more sanitizer CSV dumps; returns the process exit code
// (non-zero iff any dump holds error-class findings or fails to parse).
int sanitize_report_main(int argc, char** argv) {
  if (argc < 1) {
    print_usage();
    return 1;
  }
  std::uint64_t errors = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string path = argv[i];
    std::vector<versa::sanitize::Violation> records;
    versa::sanitize::SanitizeStats stats;
    std::string error;
    if (!versa::sanitize::read_csv(path, records, stats, error)) {
      std::fprintf(stderr, "versa_trace_report: %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("== %s ==\n", path.c_str());
    versa::sanitize::render_report(std::cout, records, stats);
    errors += stats.races + stats.out_of_spec;
  }
  return errors > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    print_usage();
    return argc < 2 ? 1 : 0;
  }

  if (std::strcmp(argv[1], "--sanitize-report") == 0) {
    return sanitize_report_main(argc - 2, argv + 2);
  }

  struct Analyzed {
    std::string path;
    versa::SchedTraceDump dump;
    versa::TraceReport report;
  };
  std::vector<Analyzed> analyzed;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "versa_trace_report: cannot open %s\n",
                   path.c_str());
      return 1;
    }
    versa::SchedTraceDump dump;
    std::string error;
    if (!versa::parse_sched_trace_csv(file, dump, error)) {
      std::fprintf(stderr, "versa_trace_report: %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    analyzed.push_back({path, std::move(dump), {}});
    analyzed.back().report = versa::analyze_sched_trace(analyzed.back().dump);
  }

  for (const Analyzed& a : analyzed) {
    std::printf("== %s ==\n%s\n", a.path.c_str(),
                versa::render_trace_report(a.dump, a.report).c_str());
  }

  if (analyzed.size() > 1) {
    versa::TablePrinter table({"policy", "placements", "learning", "steals",
                               "churn%", "coverage%"});
    for (const Analyzed& a : analyzed) {
      char churn[32];
      char coverage[32];
      std::snprintf(churn, sizeof(churn), "%.1f", a.report.steal_churn * 100.0);
      std::snprintf(coverage, sizeof(coverage), "%.1f",
                    a.report.learning_share * 100.0);
      table.add_row({a.dump.policy,
                     std::to_string(a.report.placements +
                                    a.report.learning_placements),
                     std::to_string(a.report.learning_placements),
                     std::to_string(a.report.steals), churn, coverage});
    }
    std::printf("== comparison ==\n%s", table.to_string().c_str());
  }
  return 0;
}
