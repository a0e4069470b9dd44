// versa_run — command-line driver over the whole library: pick an
// application, a scheduler, a resource configuration (or an external
// machine file) and get the paper's metrics for that single run.
//
//   versa_run --app matmul   --scheduler versioning --smp 8 --gpus 2
//   versa_run --app cholesky --variant gpu --scheduler affinity
//   versa_run --app pbpi     --variant hyb --generations 20 --utilization
//   versa_run --app matmul --machine-file node.txt --trace out.json
//
// Run with --help for the full flag list.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "apps/cholesky.h"
#include "apps/matmul.h"
#include "apps/pbpi.h"
#include "machine/machine_file.h"
#include "machine/presets.h"
#include "perf/calibrate.h"
#include "perf/profile_report.h"
#include "perf/run_stats.h"
#include "sched/versioning_scheduler.h"
#include "perf/sched_trace.h"
#include "perf/timeline.h"
#include "perf/trace.h"
#include "perf/utilization.h"
#include "runtime/runtime.h"
#include "sched/scheduler_factory.h"

using namespace versa;

namespace {

struct Options {
  std::string app = "matmul";
  std::string scheduler = "versioning";
  std::string variant = "hyb";  // hyb | gpu | smp
  std::size_t smp = 8;
  std::size_t gpus = 2;
  std::size_t n = 0;            // 0 = app default
  std::size_t block = 0;
  std::size_t generations = 50;
  std::uint32_t lambda = 3;
  std::uint64_t seed = 42;
  bool prefetch = true;
  bool utilization = false;
  bool analyze = false;
  std::string machine_file;
  std::string trace_path;
  std::string sched_trace_path;
  std::string profile_load;
  std::string profile_save;
  bool drift = false;
  std::string granularity;  // empty = leave config default (off / env)
  std::string sanitize;     // empty = leave config default (off / env)
  std::string sanitize_csv;
};

void print_usage() {
  std::printf(
      "usage: versa_run [flags]\n"
      "  --app <matmul|cholesky|pbpi>   workload (default matmul)\n"
      "  --scheduler <name>             scheduling policy (see\n"
      "                                 --list-policies)\n"
      "  --list-policies                print the valid policy names and\n"
      "                                 exit\n"
      "  --variant <hyb|gpu|smp>        application version set\n"
      "  --smp <1-12> --gpus <0-2>      MinoTauro-node resources\n"
      "  --machine-file <path>          load machine description instead\n"
      "  --n <elems> --block <elems>    problem/tile size override (matmul,\n"
      "                                 cholesky); --block must divide --n\n"
      "  --generations <n>              PBPI generations\n"
      "  --lambda <n>                   learning threshold (>= 1)\n"
      "  --granularity <off|auto|N>     adaptive task granularity\n"
      "                                 (DESIGN.md s11, matmul only): auto\n"
      "                                 splits or fuses matmul tiles, but\n"
      "                                 only in (type, size) groups the\n"
      "                                 profile already knows, so a cold\n"
      "                                 single run never re-tiles; warm it\n"
      "                                 with --profile-save, then rerun\n"
      "                                 with --profile-load. An integer\n"
      "                                 N > 1 always splits N ways;\n"
      "                                 default off (env VERSA_GRANULARITY)\n"
      "  --sanitize <off|spec|race>     dependence-spec sanitizer mode\n"
      "  --sanitize-csv <path>          write the sanitizer findings as\n"
      "                                 CSV (versa_trace_report\n"
      "                                 --sanitize-report replays it)\n"
      "  --seed <n>                     simulation seed\n"
      "  --no-prefetch                  disable transfer overlap\n"
      "  --utilization                  print per-worker utilization\n"
      "  --analyze                      print compute/transfer overlap\n"
      "  --calibrate                    measure this host's kernel rates\n"
      "                                 and exit\n"
      "  --trace <path>                 write a Chrome trace\n"
      "  --sched-trace <path>           record the scheduler decision\n"
      "                                 trace: prints the tail as a table\n"
      "                                 and writes the full event dump\n"
      "                                 (v5 CSV) for versa_trace_report\n"
      "  --profile-load <path>          warm-start from a profile store\n"
      "                                 or a hand-written text hints file\n"
      "  --profile-save <path>          persist the learned profile\n"
      "  --drift                        drift-adaptive relearning\n");
}

// Parses the whole of `text` as a decimal integer in [lo, hi]; trailing
// characters ("4096x"), signs, non-numbers and overflow are all rejected.
template <typename T>
bool parse_number(const std::string& flag, const char* text, T lo, T hi,
                  T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, error] = std::from_chars(text, end, value);
  if (error != std::errc() || ptr != end || value < lo || value > hi) {
    std::fprintf(stderr,
                 "invalid %s '%s' (expected an integer in [%llu, %llu])\n",
                 flag.c_str(), text, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return false;
  }
  out = value;
  return true;
}

// The apps CHECK that the block edge divides the matrix edge; reject a bad
// pair here, as a usage error, before anything is built.
bool check_sizes(const Options& options) {
  std::size_t n = 0;
  std::size_t block = 0;
  if (options.app == "matmul") {
    n = apps::MatmulParams{}.n;
    block = apps::MatmulParams{}.tile;
  } else if (options.app == "cholesky") {
    n = apps::CholeskyParams{}.n;
    block = apps::CholeskyParams{}.block;
  } else {
    return true;
  }
  if (options.n != 0) n = options.n;
  if (options.block != 0) block = options.block;
  if (n % block != 0) {
    std::fprintf(stderr, "block edge %zu does not divide matrix edge %zu\n",
                 block, n);
    return false;
  }
  return true;
}

bool parse_args(int argc, char** argv, Options& options) {
  constexpr std::size_t kMaxEdge = std::size_t{1} << 20;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = nullptr;
    if (flag == "--help" || flag == "-h") {
      print_usage();
      std::exit(0);
    } else if (flag == "--list-policies") {
      for (const std::string& name : scheduler_factory_names()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    } else if (flag == "--calibrate") {
      const HostCalibration calibration = calibrate_host();
      std::printf("host calibration (single core):\n");
      std::printf("  dgemm:   %.2f GFLOP/s\n",
                  calibration.dgemm_flops_per_second / 1e9);
      std::printf("  stencil: %.2f GB/s\n",
                  calibration.stencil_bytes_per_second / 1e9);
      std::printf("  spotrf:  %.2f GFLOP/s\n",
                  calibration.spotrf_flops_per_second / 1e9);
      std::exit(0);
    } else if (flag == "--no-prefetch") {
      options.prefetch = false;
    } else if (flag == "--drift") {
      options.drift = true;
    } else if (flag == "--utilization") {
      options.utilization = true;
    } else if (flag == "--analyze") {
      options.analyze = true;
    } else if ((value = need_value(i)) == nullptr) {
      return false;
    } else if (flag == "--app") {
      options.app = value;
    } else if (flag == "--scheduler") {
      options.scheduler = value;
    } else if (flag == "--variant") {
      options.variant = value;
    } else if (flag == "--smp") {
      if (!parse_number<std::size_t>(flag, value, 1, 12, options.smp)) {
        return false;
      }
    } else if (flag == "--gpus") {
      if (!parse_number<std::size_t>(flag, value, 0, 2, options.gpus)) {
        return false;
      }
    } else if (flag == "--n") {
      if (!parse_number<std::size_t>(flag, value, 1, kMaxEdge, options.n)) {
        return false;
      }
    } else if (flag == "--block") {
      if (!parse_number<std::size_t>(flag, value, 1, kMaxEdge,
                                     options.block)) {
        return false;
      }
    } else if (flag == "--generations") {
      if (!parse_number<std::size_t>(flag, value, 1, 1000000,
                                     options.generations)) {
        return false;
      }
    } else if (flag == "--granularity") {
      options.granularity = value;
    } else if (flag == "--sanitize") {
      options.sanitize = value;
    } else if (flag == "--sanitize-csv") {
      options.sanitize_csv = value;
    } else if (flag == "--lambda") {
      if (!parse_number<std::uint32_t>(
              flag, value, 1, std::numeric_limits<std::uint32_t>::max(),
              options.lambda)) {
        return false;
      }
    } else if (flag == "--seed") {
      if (!parse_number<std::uint64_t>(
              flag, value, 0, std::numeric_limits<std::uint64_t>::max(),
              options.seed)) {
        return false;
      }
    } else if (flag == "--machine-file") {
      options.machine_file = value;
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else if (flag == "--sched-trace") {
      options.sched_trace_path = value;
    } else if (flag == "--profile-load") {
      options.profile_load = value;
    } else if (flag == "--profile-save") {
      options.profile_save = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

void print_version_split(const Runtime& rt, TaskTypeId type) {
  for (VersionId v : rt.version_registry().versions(type)) {
    const TaskVersion& version = rt.version_registry().version(v);
    std::printf("    %-8s (%s): %llu runs (%.1f %%)\n", version.name.c_str(),
                to_string(version.device),
                static_cast<unsigned long long>(rt.run_stats().count(v)),
                rt.run_stats().percent(type, v));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    print_usage();
    return 2;
  }
  if (!check_sizes(options)) return 2;

  Machine machine = [&] {
    if (!options.machine_file.empty()) {
      MachineParseResult parsed = load_machine(options.machine_file);
      if (!parsed.machine) {
        std::fprintf(stderr, "machine file error: %s\n", parsed.error.c_str());
        std::exit(2);
      }
      return std::move(*parsed.machine);
    }
    return make_minotauro_node(options.smp, options.gpus);
  }();

  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = options.scheduler;
  config.profile.lambda = options.lambda;
  config.seed = options.seed;
  config.prefetch = options.prefetch;
  config.profile_load_path = options.profile_load;
  config.profile_save_path = options.profile_save;
  config.profile.drift.enabled = options.drift;
  config.sched_trace = !options.sched_trace_path.empty();
  if (!options.granularity.empty() &&
      !core::parse_granularity(options.granularity, config.granularity)) {
    std::fprintf(stderr,
                 "invalid --granularity '%s' (expected off, auto or an "
                 "integer)\n",
                 options.granularity.c_str());
    return 2;
  }
  if (!options.sanitize.empty() &&
      !sanitize::parse_sanitize_mode(options.sanitize, config.sanitize.mode)) {
    std::fprintf(stderr, "invalid --sanitize '%s' (expected off, spec or "
                 "race)\n", options.sanitize.c_str());
    return 2;
  }
  if (make_scheduler(options.scheduler) == nullptr) {
    std::string valid;
    for (const std::string& name : scheduler_factory_names()) {
      if (!valid.empty()) valid += ", ";
      valid += name;
    }
    std::fprintf(stderr, "unknown scheduler '%s' — valid policies: %s\n",
                 options.scheduler.c_str(), valid.c_str());
    return 2;
  }

  Runtime rt(machine, config);
  std::printf("machine: %s | scheduler: %s | app: %s (%s)\n",
              machine.summary().c_str(), options.scheduler.c_str(),
              options.app.c_str(), options.variant.c_str());

  double flops = 0.0;
  std::vector<TaskTypeId> report_types;
  if (options.app == "matmul") {
    apps::MatmulParams params;
    if (options.n != 0) params.n = options.n;
    if (options.block != 0) params.tile = options.block;
    params.hybrid = options.variant == "hyb";
    apps::MatmulApp app(rt, params);
    app.run();
    flops = app.total_flops();
    report_types.push_back(app.task_type());
  } else if (options.app == "cholesky") {
    apps::CholeskyParams params;
    if (options.n != 0) params.n = options.n;
    if (options.block != 0) params.block = options.block;
    params.potrf = options.variant == "hyb"   ? apps::PotrfVariant::kHybrid
                   : options.variant == "smp" ? apps::PotrfVariant::kSmp
                                              : apps::PotrfVariant::kGpu;
    apps::CholeskyApp app(rt, params);
    app.run();
    flops = app.total_flops();
    report_types.push_back(app.potrf_type());
  } else if (options.app == "pbpi") {
    apps::PbpiParams params;
    params.generations = options.generations;
    params.variant = options.variant == "hyb"   ? apps::PbpiVariant::kHybrid
                     : options.variant == "smp" ? apps::PbpiVariant::kSmp
                                                : apps::PbpiVariant::kGpu;
    apps::PbpiApp app(rt, params);
    app.run();
    report_types.push_back(app.loop1_type());
    report_types.push_back(app.loop2_type());
  } else {
    std::fprintf(stderr, "unknown app '%s'\n", options.app.c_str());
    return 2;
  }

  std::printf("elapsed: %.3f s (virtual)\n", rt.elapsed());
  if (flops > 0.0) {
    std::printf("performance: %.1f GFLOP/s\n", gflops(flops, rt.elapsed()));
  }
  std::printf("tasks: %llu\n",
              static_cast<unsigned long long>(rt.run_stats().total_tasks()));
  std::printf("transfers: %s\n", rt.transfer_stats().summary().c_str());
  for (const TaskTypeId type : report_types) {
    std::printf("  %s versions:\n",
                rt.version_registry().task_name(type).c_str());
    print_version_split(rt, type);
  }
  if (const auto* granularity = rt.granularity()) {
    const auto& stats = granularity->stats();
    std::printf("granularity [%s]: %llu splits (%llu children), %llu fuses "
                "(%llu absorbed), %llu reversals\n",
                core::to_string(granularity->config().mode),
                static_cast<unsigned long long>(stats.splits),
                static_cast<unsigned long long>(stats.children_created),
                static_cast<unsigned long long>(stats.fuses),
                static_cast<unsigned long long>(stats.tasks_fused),
                static_cast<unsigned long long>(stats.reversals));
  }
  if (const auto* sanitizer = rt.sanitizer()) {
    sanitizer->render(std::cout);
    if (!options.sanitize_csv.empty()) {
      if (sanitizer->write_csv_report(options.sanitize_csv)) {
        std::printf("sanitize report written to %s\n",
                    options.sanitize_csv.c_str());
      } else {
        std::fprintf(stderr, "could not write sanitize report to %s\n",
                     options.sanitize_csv.c_str());
      }
    }
  }
  if (!options.profile_load.empty()) {
    std::printf("%s\n", profile_load_summary(rt.profile_load_result()).c_str());
  }
  if (const auto* versioning =
          dynamic_cast<const VersioningScheduler*>(&rt.scheduler())) {
    std::printf("learning-phase executions: %llu\n",
                static_cast<unsigned long long>(
                    versioning->learning_executions()));
    const auto& events = versioning->profile().drift_events();
    if (!events.empty()) {
      std::printf("drift relearn events: %zu\n%s", events.size(),
                  drift_event_table(rt.version_registry(), events).c_str());
    }
  }
  if (options.utilization) {
    const auto rows =
        compute_utilization(rt.task_graph(), machine, rt.elapsed());
    std::printf("\n%s", utilization_table(rows).c_str());
    std::printf("mean utilization: %.1f %%\n", mean_utilization(rows) * 100.0);
  }
  if (options.analyze) {
    const auto* records = rt.transfer_records();
    if (records != nullptr) {
      const TimelineStats stats =
          analyze_timeline(rt.task_graph(), *records, rt.elapsed());
      std::printf("\n%s", timeline_report(stats).c_str());
    }
  }
  if (!options.trace_path.empty()) {
    if (write_trace(options.trace_path, rt.task_graph(), machine,
                    rt.version_registry(), rt.transfer_records())) {
      std::printf("trace written to %s\n", options.trace_path.c_str());
    } else {
      std::fprintf(stderr, "could not write trace to %s\n",
                   options.trace_path.c_str());
    }
  }
  if (!options.sched_trace_path.empty()) {
    const auto& trace = rt.scheduler().decision_trace();
    std::printf("\nscheduler decisions (last 32):\n%s",
                sched_trace_table(trace, rt.version_registry(), machine, 32)
                    .c_str());
    const std::string& path = options.sched_trace_path;
    if (write_sched_trace_csv(path, trace, rt.scheduler().name())) {
      std::printf("scheduler trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write scheduler trace to %s\n",
                   path.c_str());
    }
  }
  if (const auto* sanitizer = rt.sanitizer();
      sanitizer != nullptr && sanitizer->error_count() > 0) {
    std::fprintf(stderr, "sanitizer: %llu error(s) detected\n",
                 static_cast<unsigned long long>(sanitizer->error_count()));
    return 3;
  }
  return 0;
}
