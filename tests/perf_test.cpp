// Unit tests for the reporting layer: run statistics, table/CSV emitters,
// GFLOP/s helper and the Chrome-trace exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "common/string_util.h"
#include "machine/presets.h"
#include "perf/report.h"
#include "perf/run_stats.h"
#include "perf/sched_trace.h"
#include "perf/trace.h"
#include "perf/trace_report.h"
#include "runtime/runtime.h"

namespace versa {
namespace {

TEST(RunStatsCollector, CountsAndTotals) {
  RunStatsCollector stats;
  stats.on_complete(/*type=*/0, /*version=*/0, 1.0);
  stats.on_complete(0, 0, 2.0);
  stats.on_complete(0, 1, 4.0);
  stats.on_complete(1, 2, 8.0);

  EXPECT_EQ(stats.total_tasks(), 4u);
  EXPECT_EQ(stats.count(0), 2u);
  EXPECT_EQ(stats.count(1), 1u);
  EXPECT_DOUBLE_EQ(stats.total_time(0), 3.0);
  EXPECT_EQ(stats.type_count(0), 3u);
  EXPECT_EQ(stats.type_count(1), 1u);
  EXPECT_EQ(stats.type_count(9), 0u);
}

TEST(RunStatsCollector, PercentPerType) {
  RunStatsCollector stats;
  stats.on_complete(0, 0, 1.0);
  stats.on_complete(0, 0, 1.0);
  stats.on_complete(0, 1, 1.0);
  stats.on_complete(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(stats.percent(0, 0), 50.0);
  EXPECT_DOUBLE_EQ(stats.percent(0, 1), 50.0);
  EXPECT_DOUBLE_EQ(stats.percent(0, 7), 0.0);
  EXPECT_DOUBLE_EQ(stats.percent(9, 0), 0.0);  // unknown type
}

TEST(RunStatsCollector, ResetClears) {
  RunStatsCollector stats;
  stats.on_complete(0, 0, 1.0);
  stats.reset();
  EXPECT_EQ(stats.total_tasks(), 0u);
  EXPECT_EQ(stats.count(0), 0u);
}

TEST(Gflops, Computation) {
  EXPECT_DOUBLE_EQ(gflops(2e9, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(gflops(1e9, 0.5), 2.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer-name", "23"});
  const std::string out = table.to_string();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Every line has the same width (trailing spaces pad short cells).
  const auto lines = split(out.substr(0, out.size() - 1), '\n');
  EXPECT_EQ(lines[0].size(), lines[1].size());
}

TEST(TablePrinterTest, MissingCellsRenderEmpty) {
  TablePrinter table({"a", "b", "c"});
  table.add_row({"only"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("only"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  CsvWriter csv;
  csv.add_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(csv.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(CsvWriterTest, WritesFile) {
  CsvWriter csv;
  csv.add_row({"a", "b"});
  const std::string path = testing::TempDir() + "/versa_test.csv";
  ASSERT_TRUE(csv.write_file(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
}

TEST(Trace, ExportsCompleteEventsPerWorker) {
  const Machine machine = make_minotauro_node(1, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "fifo";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("demo");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 100);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();

  const std::string json =
      trace_json(rt.task_graph(), machine, rt.version_registry());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("demo/v"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("gpu-0"), std::string::npos);  // worker lane names
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, TransferLanesWhenRecordsProvided) {
  const Machine machine = make_minotauro_node(1, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "fifo";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("demo");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 1 << 20);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();

  const std::string json = trace_json(rt.task_graph(), machine,
                                      rt.version_registry(),
                                      rt.transfer_records());
  EXPECT_NE(json.find("\"cat\":\"transfer\""), std::string::npos);
  EXPECT_NE(json.find("host->gpu-mem-0"), std::string::npos);
  EXPECT_NE(json.find("gpu-mem-0->host"), std::string::npos);  // flush
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, WriteFileRoundTrip) {
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("x");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 8);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();

  const std::string path = testing::TempDir() + "/versa_trace.json";
  EXPECT_TRUE(write_trace(path, rt.task_graph(), machine,
                          rt.version_registry()));
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  EXPECT_FALSE(write_trace("/nonexistent/dir/trace.json", rt.task_graph(),
                           machine, rt.version_registry()));
}

TEST(TraceReport, CsvRoundTripPreservesEventsAndMetadata) {
  // Record a synthetic decision stream, render it with sched_trace_csv and
  // feed it back through the versa_trace_report parser: every field and
  // the `#` metadata must survive the trip.
  core::DecisionTrace trace;
  trace.enable(16);
  core::TraceEvent e;
  e.time = 1.25;
  e.task = 7;
  e.type = 2;
  e.version = 3;
  e.worker = 1;
  e.busy_term = 0.5;
  e.mean_term = 0.25;
  e.penalty_term = 0.125;
  e.candidates = 6;
  e.kind = core::TraceEventKind::kLearningPlacement;
  trace.record(e);
  e.time = 2.5;
  e.task = 8;
  e.worker = 0;
  e.kind = core::TraceEventKind::kPlacement;
  trace.record(e);
  e.time = 3.0;
  e.kind = core::TraceEventKind::kSteal;
  e.worker = 1;
  trace.record(e);
  e.time = 4.0;
  e.kind = core::TraceEventKind::kComplete;
  trace.record(e);

  const std::string csv = sched_trace_csv(trace, "versioning");
  std::istringstream in(csv);
  SchedTraceDump dump;
  std::string error;
  ASSERT_TRUE(parse_sched_trace_csv(in, dump, error)) << error;
  EXPECT_EQ(dump.policy, "versioning");
  EXPECT_EQ(dump.recorded, 4u);
  EXPECT_EQ(dump.dropped, 0u);
  EXPECT_EQ(dump.capacity, 16u);
  ASSERT_EQ(dump.events.size(), 4u);
  EXPECT_DOUBLE_EQ(dump.events[0].time, 1.25);
  EXPECT_EQ(dump.events[0].task, 7u);
  EXPECT_EQ(dump.events[0].type, 2u);
  EXPECT_EQ(dump.events[0].version, 3u);
  EXPECT_EQ(dump.events[0].worker, 1u);
  EXPECT_DOUBLE_EQ(dump.events[0].busy_term, 0.5);
  EXPECT_DOUBLE_EQ(dump.events[0].mean_term, 0.25);
  EXPECT_DOUBLE_EQ(dump.events[0].penalty_term, 0.125);
  EXPECT_EQ(dump.events[0].candidates, 6u);
  EXPECT_EQ(dump.events[0].kind, core::TraceEventKind::kLearningPlacement);
  EXPECT_EQ(dump.events[3].kind, core::TraceEventKind::kComplete);

  const TraceReport report = analyze_sched_trace(dump);
  EXPECT_EQ(report.placements, 1u);
  EXPECT_EQ(report.learning_placements, 1u);
  EXPECT_EQ(report.steals, 1u);
  EXPECT_EQ(report.completions, 1u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_DOUBLE_EQ(report.steal_churn, 0.5);   // 1 steal / 2 placements
  EXPECT_DOUBLE_EQ(report.learning_share, 0.5);
  EXPECT_EQ(report.versions_placed, 1u);   // both placements share (2, 3)
  EXPECT_EQ(report.versions_sampled, 1u);
  ASSERT_EQ(report.per_worker.size(), 2u);
  EXPECT_EQ(report.per_worker.at(0).first, 1u);   // placements on worker 0
  EXPECT_EQ(report.per_worker.at(1).first, 1u);
  EXPECT_EQ(report.per_worker.at(1).second, 1u);  // the steal, by worker 1

  const std::string rendered = render_trace_report(dump, report);
  EXPECT_NE(rendered.find("policy: versioning"), std::string::npos);
  EXPECT_NE(rendered.find("steal churn: 50.0%"), std::string::npos);
}

TEST(TraceReport, V3GranularityColumnsRoundTripAndAggregate) {
  // Split/fuse/reversal events carry the group key and child count through
  // the CSV; the analyzer folds them into the per-group breakdown and the
  // renderer shows a granularity section.
  core::DecisionTrace trace;
  trace.enable(16);
  core::TraceEvent e;
  e.time = 1.0;
  e.task = 1;
  e.type = 5;
  e.kind = core::TraceEventKind::kSplit;
  e.group = 4096;
  e.children = 4;
  trace.record(e);
  e.time = 2.0;
  e.task = 2;
  e.kind = core::TraceEventKind::kSplit;
  e.children = 8;
  trace.record(e);
  e.time = 3.0;
  e.task = 3;
  e.type = 6;
  e.kind = core::TraceEventKind::kFuse;
  e.group = 512;
  e.children = 3;  // original submissions absorbed
  trace.record(e);
  e.time = 4.0;
  e.task = 4;
  e.type = 5;
  e.kind = core::TraceEventKind::kReversal;
  e.group = 4096;
  e.children = 0;
  trace.record(e);

  const std::string csv = sched_trace_csv(trace, "versioning");
  EXPECT_NE(csv.find("# versa-sched-trace v5"), std::string::npos);
  std::istringstream in(csv);
  SchedTraceDump dump;
  std::string error;
  ASSERT_TRUE(parse_sched_trace_csv(in, dump, error)) << error;
  ASSERT_EQ(dump.events.size(), 4u);
  EXPECT_EQ(dump.events[0].kind, core::TraceEventKind::kSplit);
  EXPECT_EQ(dump.events[0].group, 4096u);
  EXPECT_EQ(dump.events[0].children, 4u);
  EXPECT_EQ(dump.events[2].kind, core::TraceEventKind::kFuse);
  EXPECT_EQ(dump.events[3].kind, core::TraceEventKind::kReversal);

  const TraceReport report = analyze_sched_trace(dump);
  EXPECT_EQ(report.splits, 2u);
  EXPECT_EQ(report.fuses, 1u);
  EXPECT_EQ(report.reversals, 1u);
  ASSERT_EQ(report.per_group.size(), 2u);
  const TraceReport::GranularityBreakdown& coarse =
      report.per_group.at({5, 4096});
  EXPECT_EQ(coarse.splits, 2u);
  EXPECT_EQ(coarse.children_created, 12u);
  EXPECT_EQ(coarse.reversals, 1u);
  const TraceReport::GranularityBreakdown& fine =
      report.per_group.at({6, 512});
  EXPECT_EQ(fine.fuses, 1u);
  EXPECT_EQ(fine.tasks_fused, 3u);

  const std::string rendered = render_trace_report(dump, report);
  EXPECT_NE(rendered.find("granularity: 2 splits, 1 fuses, 1 reversals"),
            std::string::npos);
  EXPECT_NE(rendered.find("4096"), std::string::npos);
}

TEST(TraceReport, LegacyV3FilesStillParse) {
  // v3 files already wrote today's 13-column layout, so they parse as is.
  const std::string v3 =
      "# versa-sched-trace v3\n"
      "# policy=versioning\n"
      "# recorded=1 dropped=0 capacity=8\n"
      "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
      "tenant,group,children\n"
      "1.0,split,7,2,0,0,0,0,0,0,0,4096,4\n";
  std::istringstream in(v3);
  SchedTraceDump dump;
  std::string error;
  ASSERT_TRUE(parse_sched_trace_csv(in, dump, error)) << error;
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].kind, core::TraceEventKind::kSplit);
  EXPECT_EQ(dump.events[0].group, 4096u);
  EXPECT_EQ(dump.events[0].children, 4u);
  const TraceReport report = analyze_sched_trace(dump);
  EXPECT_EQ(report.splits, 1u);
}

TEST(TraceReport, ParserRejectsMalformedInput) {
  SchedTraceDump dump;
  std::string error;
  {
    // Arbitrary text: no column header.
    std::istringstream in("hello\nworld\n");
    EXPECT_FALSE(parse_sched_trace_csv(in, dump, error));
    EXPECT_NE(error.find("column header"), std::string::npos);
  }
  {
    // Header but a row with the wrong field count.
    std::istringstream in(
        "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
        "tenant,group,children\n"
        "1.0,place,1,2,3\n");
    EXPECT_FALSE(parse_sched_trace_csv(in, dump, error));
    EXPECT_NE(error.find("expected 13 fields"), std::string::npos);
  }
  {
    // Unknown event kind.
    std::istringstream in(
        "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
        "tenant,group,children\n"
        "1.0,bogus,1,2,3,0,0.0,0.0,0.0,1,0,0,0\n");
    EXPECT_FALSE(parse_sched_trace_csv(in, dump, error));
    EXPECT_NE(error.find("malformed"), std::string::npos);
  }
  {
    // Empty stream.
    std::istringstream in("");
    EXPECT_FALSE(parse_sched_trace_csv(in, dump, error));
  }
}

TEST(TraceReport, TruncatedRowsAreRejectedAtEveryPrefix) {
  // Chop a valid v5 row after the header at every byte length: the parser
  // must reject every non-empty strict prefix, including the ones that end
  // exactly on a column boundary. Nothing may crash.
  const std::string header =
      "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
      "tenant,group,children\n";
  const std::string row = "1.5,split,7,2,3,1,0.5,0.25,0.125,6,0,4096,4";
  for (std::size_t length = 0; length <= row.size(); ++length) {
    std::istringstream in(header + row.substr(0, length) + "\n");
    SchedTraceDump dump;
    std::string error;
    const bool parsed = parse_sched_trace_csv(in, dump, error);
    if (length == row.size()) {
      EXPECT_TRUE(parsed) << error;
      ASSERT_EQ(dump.events.size(), 1u);
      EXPECT_EQ(dump.events[0].group, 4096u);
    } else if (length == 0) {
      // The empty line is skipped: a header-only file parses to no events.
      EXPECT_TRUE(parsed) << error;
      EXPECT_TRUE(dump.events.empty());
    } else {
      EXPECT_FALSE(parsed) << "prefix length " << length << " accepted";
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(TraceReport, UnknownKindVariantsAreRejected) {
  const std::string header =
      "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
      "tenant,group,children\n";
  // Near-misses of real kinds: case changes, prefixes, extensions and
  // whitespace must all fail — the kind match is exact.
  for (const std::string kind :
       {"Place", "PLACE", "pla", "placed", "steal ", " steal", "complete",
        "prefetch", "prefetch-", "done2", ""}) {
    std::istringstream in(header + "1.0," + kind +
                          ",1,2,3,0,0.0,0.0,0.0,1,0,0,0\n");
    SchedTraceDump dump;
    std::string error;
    EXPECT_FALSE(parse_sched_trace_csv(in, dump, error)) << "'" << kind << "'";
    EXPECT_NE(error.find("malformed"), std::string::npos);
  }
}

TEST(TraceReport, TwelveFieldRowsAreRejected) {
  // Only the 13-field v5 layout parses. A row that lost or gained columns
  // — including the retired 10-field v1 and 11-field v2 widths — must fail
  // loudly with its line number and width, not parse with shifted fields.
  const std::string header =
      "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
      "tenant,group,children\n";
  const std::string full = "1.0,place,1,2,3,1,0.5,0.25,0.125,6,0,4096,4";
  std::vector<std::size_t> comma_at;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == ',') comma_at.push_back(i);
  }
  ASSERT_EQ(comma_at.size(), 12u);
  for (const std::size_t width : {10u, 11u, 12u, 14u}) {
    const std::string row =
        width == 14 ? full + ",0" : full.substr(0, comma_at[width - 1]);
    // The bad row sits on line 3, after one valid row.
    std::istringstream in(header + full + "\n" + row + "\n");
    SchedTraceDump dump;
    std::string error;
    EXPECT_FALSE(parse_sched_trace_csv(in, dump, error)) << width;
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find("got " + std::to_string(width)), std::string::npos)
        << error;
  }
}

TEST(TraceReport, DeterministicMutationFuzzNeverCrashes) {
  // Seeded byte-level mutations of a valid dump: every variant must either
  // parse or fail with a diagnostic — no crashes, no hangs, and a failed
  // parse always names a line. The seed is fixed so a regression replays.
  const std::string valid =
      "# versa-sched-trace v5\n"
      "# policy=fifo\n"
      "# recorded=4 dropped=0 capacity=8\n"
      "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
      "tenant,group,children\n"
      "1.0,learn,1,0,1,0,0.5,0.25,0.125,3,0,0,0\n"
      "2.0,place,2,1,2,1,0.5,0.25,0.125,3,0,0,0\n"
      "3.0,done,1,0,1,0,0.0,0.0,0.0,0,0,0,0\n"
      "4.0,split,2,1,2,1,0.0,0.0,0.0,0,0,512,2\n";
  const std::string alphabet = "0123456789,.-azZ \n#";
  Rng rng(20260809);
  int parsed_count = 0;
  int rejected_count = 0;
  for (int round = 0; round < 500; ++round) {
    std::string mutated = valid;
    const std::size_t mutations = 1 + rng.next_below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:  // overwrite
          mutated[at] = alphabet[rng.next_below(alphabet.size())];
          break;
        case 1:  // delete
          mutated.erase(at, 1);
          break;
        default:  // insert
          mutated.insert(at, 1, alphabet[rng.next_below(alphabet.size())]);
          break;
      }
    }
    std::istringstream in(mutated);
    SchedTraceDump dump;
    std::string error;
    if (parse_sched_trace_csv(in, dump, error)) {
      ++parsed_count;
      // Whatever parsed must also analyze and render without crashing.
      const TraceReport report = analyze_sched_trace(dump);
      EXPECT_FALSE(render_trace_report(dump, report).empty());
    } else {
      ++rejected_count;
      EXPECT_FALSE(error.empty());
    }
  }
  // The mutation space hits both outcomes; if either count is zero the
  // fuzzer is not exercising the parser any more.
  EXPECT_GT(parsed_count, 0);
  EXPECT_GT(rejected_count, 0);
}

TEST(TraceReport, PerTypeBreakdownRenderedForMultiTypeDumps) {
  // Two task types with placements: the per-type section appears with one
  // row per type. One type: section absent (old reports unchanged).
  const std::string header =
      "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
      "tenant,group,children\n";
  std::istringstream multi(
      header +
      "1.0,place,1,0,1,0,0.0,0.0,0.0,1,0,0,0\n"
      "2.0,learn,2,5,2,1,0.0,0.0,0.0,1,0,0,0\n"
      "3.0,done,1,0,1,0,0.0,0.0,0.0,0,0,0,0\n"
      "4.0,steal,2,5,2,0,0.0,0.0,0.0,0,0,0,0\n");
  SchedTraceDump dump;
  std::string error;
  ASSERT_TRUE(parse_sched_trace_csv(multi, dump, error)) << error;
  const TraceReport report = analyze_sched_trace(dump);
  ASSERT_EQ(report.per_type.size(), 2u);
  EXPECT_EQ(report.per_type.at(0).placements, 1u);
  EXPECT_EQ(report.per_type.at(0).completions, 1u);
  EXPECT_EQ(report.per_type.at(5).placements, 1u);
  EXPECT_EQ(report.per_type.at(5).learning, 1u);
  EXPECT_EQ(report.per_type.at(5).steals, 1u);
  EXPECT_DOUBLE_EQ(report.per_type.at(5).steal_churn, 1.0);
  const std::string rendered = render_trace_report(dump, report);
  EXPECT_NE(rendered.find("per-type breakdown:"), std::string::npos);

  std::istringstream single(header +
                            "1.0,place,1,0,1,0,0.0,0.0,0.0,1,0,0,0\n");
  ASSERT_TRUE(parse_sched_trace_csv(single, dump, error)) << error;
  const TraceReport single_report = analyze_sched_trace(dump);
  EXPECT_EQ(render_trace_report(dump, single_report).find("per-type"),
            std::string::npos);
}

TEST(TraceReport, EmptyTraceAnalyzesToZeros) {
  // A dump with a header and no rows (enabled trace, nothing recorded) is
  // valid and must not divide by zero.
  std::istringstream in(
      "# versa-sched-trace v5\n"
      "# policy=fifo\n"
      "# recorded=0 dropped=0 capacity=8\n"
      "time,kind,task,type,version,worker,busy,estimate,penalty,candidates,"
      "tenant,group,children\n");
  SchedTraceDump dump;
  std::string error;
  ASSERT_TRUE(parse_sched_trace_csv(in, dump, error)) << error;
  EXPECT_EQ(dump.policy, "fifo");
  EXPECT_TRUE(dump.events.empty());
  const TraceReport report = analyze_sched_trace(dump);
  EXPECT_DOUBLE_EQ(report.steal_churn, 0.0);
  EXPECT_DOUBLE_EQ(report.learning_share, 0.0);
  EXPECT_TRUE(report.per_worker.empty());
}

}  // namespace
}  // namespace versa
