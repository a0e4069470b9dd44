// versa_taskbench — task-bench-style METG harness over the synthetic
// dependence-graph generator (src/taskbench, DESIGN.md §14).
//
// Two modes:
//
//   fixed-cost (default) — run each requested graph family at one task
//   cost per (policy × backend) and report per-family elapsed time and
//   parallel efficiency. All families of one (policy, backend) cell share
//   a single Runtime, so a --sched-trace CSV carries one task type per
//   family and versa_trace_report's per-type breakdown separates them.
//
//   --metg — bisect the per-task compute cost until parallel efficiency
//   crosses the target (50% by default) and report the minimum effective
//   task granularity per (family × policy × backend), task-bench's
//   METG(50%) metric. Each probe builds a fresh Runtime so learned
//   profiles never leak between costs.
//
//   versa_taskbench --family stencil --quick
//   versa_taskbench --metg --family all --policy all --backend both
//   versa_taskbench --family stencil --backend threads --sched-trace t.csv
//
// Run with --help for the full flag list.
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "machine/presets.h"
#include "perf/sched_trace.h"
#include "runtime/runtime.h"
#include "sched/scheduler_factory.h"
#include "taskbench/graph_spec.h"
#include "taskbench/metg.h"
#include "taskbench/runner.h"

using namespace versa;
using namespace versa::taskbench;

namespace {

struct Options {
  std::string family = "stencil";  // family name or "all"
  std::string policy = "versioning";  // policy name or "all"
  std::string backend = "sim";        // sim | threads | both
  std::uint32_t width = 16;
  std::uint32_t steps = 8;
  std::uint64_t payload = 4096;
  std::uint32_t fan = 2;
  std::uint64_t seed = 42;
  std::size_t smp = 4;
  std::size_t gpus = 2;
  double task_cost = 1e-3;
  bool metg = false;
  double metg_lo = 1e-5;
  double metg_hi = 1e-1;
  double metg_target = 0.5;
  double metg_tolerance = 1.1;
  std::string json_path;
  std::string sched_trace_path;
};

void print_usage() {
  std::printf(
      "usage: versa_taskbench [flags]\n"
      "  --family <name|all>        graph family: trivial, chain, stencil,\n"
      "                             stencil2d, fft, tree, random, or all\n"
      "                             (default stencil)\n"
      "  --policy <name|all>        scheduling policy (see --list-policies)\n"
      "  --backend <sim|threads|both>  execution backend (default sim)\n"
      "  --width <n> --steps <n>    graph shape (default 16 x 8; fft/tree\n"
      "                             round width down to a power of two,\n"
      "                             stencil2d to a square)\n"
      "  --payload <bytes>          bytes per dependence edge (default 4096)\n"
      "  --fan <n>                  parents per node, random family only\n"
      "  --seed <n>                 generator seed (default 42)\n"
      "  --smp <n> --gpus <n>       MinoTauro-node resources (default 4+2)\n"
      "  --task-cost <seconds>      fixed-cost mode task duration\n"
      "                             (default 1e-3)\n"
      "  --metg                     bisect task cost for the minimum\n"
      "                             effective task granularity instead of a\n"
      "                             single fixed-cost run\n"
      "  --metg-lo/--metg-hi <s>    bisection bracket (default 1e-5..1e-1)\n"
      "  --metg-target <frac>       efficiency target (default 0.5)\n"
      "  --metg-tol <factor>        stop when hi/lo <= factor (default 1.1)\n"
      "  --quick                    CI preset: 8x4 graph, 1 KiB payloads,\n"
      "                             2+1 workers, 200 us tasks, coarse\n"
      "                             bisection (later flags override)\n"
      "  --json <path>              write all result rows as JSON\n"
      "  --sched-trace <path>       record the scheduler decision trace of\n"
      "                             the (single) requested policy x backend\n"
      "                             cell as the v5 CSV event dump that\n"
      "                             versa_trace_report replays\n"
      "  --list-policies            print valid policy names and exit\n"
      "  --list-families            print valid family names and exit\n");
}

// Parses the whole of `text` as a decimal integer in [lo, hi]; trailing
// characters ("4x"), signs, non-numbers and overflow are all rejected.
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

// Parses the whole of `text` as a finite number in (lo, hi].
bool parse_real(const std::string& flag, const char* text, double lo,
                double hi, double& out) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [ptr, error] = std::from_chars(text, end, value);
  if (error != std::errc() || ptr != end || !std::isfinite(value) ||
      value <= lo || value > hi) {
    std::fprintf(stderr, "invalid %s '%s' (expected a number in (%g, %g])\n",
                 flag.c_str(), text, lo, hi);
    return false;
  }
  out = value;
  return true;
}

bool parse_args(int argc, char** argv, Options& options) {
  // Graph shape bounds keep a typo from asking for billions of tasks.
  constexpr std::uint32_t kMaxShape = 1u << 16;
  constexpr std::uint64_t kMaxPayload = 1ull << 32;
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
    } else if (flag == "--list-families") {
      for (const GraphFamily family : all_families()) {
        std::printf("%s\n", to_string(family));
      }
      std::exit(0);
    } else if (flag == "--metg") {
      options.metg = true;
    } else if (flag == "--quick") {
      options.width = 8;
      options.steps = 4;
      options.payload = 1024;
      options.smp = 2;
      options.gpus = 1;
      options.task_cost = 200e-6;
      options.metg_lo = 2e-5;
      options.metg_hi = 2e-2;
      options.metg_tolerance = 2.0;
    } else if ((value = need_value(i)) == nullptr) {
      return false;
    } else if (flag == "--family") {
      options.family = value;
    } else if (flag == "--policy") {
      options.policy = value;
    } else if (flag == "--backend") {
      options.backend = value;
    } else if (flag == "--width") {
      if (!parse_number(flag, value, 1u, kMaxShape, options.width)) {
        return false;
      }
    } else if (flag == "--steps") {
      if (!parse_number(flag, value, 1u, kMaxShape, options.steps)) {
        return false;
      }
    } else if (flag == "--payload") {
      if (!parse_number<std::uint64_t>(flag, value, 0, kMaxPayload,
                                       options.payload)) {
        return false;
      }
    } else if (flag == "--fan") {
      if (!parse_number(flag, value, 1u, kMaxShape, options.fan)) {
        return false;
      }
    } else if (flag == "--seed") {
      if (!parse_number<std::uint64_t>(
              flag, value, 0, std::numeric_limits<std::uint64_t>::max(),
              options.seed)) {
        return false;
      }
    } else if (flag == "--smp") {
      if (!parse_number<std::size_t>(flag, value, 1, 12, options.smp)) {
        return false;
      }
    } else if (flag == "--gpus") {
      if (!parse_number<std::size_t>(flag, value, 0, 2, options.gpus)) {
        return false;
      }
    } else if (flag == "--task-cost") {
      if (!parse_real(flag, value, 0.0, 1e3, options.task_cost)) return false;
    } else if (flag == "--metg-lo") {
      if (!parse_real(flag, value, 0.0, 1e3, options.metg_lo)) return false;
    } else if (flag == "--metg-hi") {
      if (!parse_real(flag, value, 0.0, 1e3, options.metg_hi)) return false;
    } else if (flag == "--metg-target") {
      if (!parse_real(flag, value, 0.0, 1.0, options.metg_target)) {
        return false;
      }
    } else if (flag == "--metg-tol") {
      if (!parse_real(flag, value, 1.0, 1e6, options.metg_tolerance)) {
        return false;
      }
    } else if (flag == "--json") {
      options.json_path = value;
    } else if (flag == "--sched-trace") {
      options.sched_trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

const char* to_string(Backend backend) {
  return backend == Backend::kSim ? "sim" : "threads";
}

/// One result row — fixed-cost fields or METG fields depending on mode.
struct ResultRow {
  GraphFamily family = GraphFamily::kStencil1D;
  std::string policy;
  Backend backend = Backend::kSim;
  GraphOracle oracle;
  // fixed-cost mode
  double task_cost = 0.0;
  double elapsed = 0.0;
  double efficiency = 0.0;
  // METG mode
  MetgResult metg;
};

const char* metg_status(const MetgResult& result) {
  if (result.all_overhead) return "all_overhead";
  if (result.zero_overhead) return "zero_overhead";
  return "found";
}

/// Submit one family's graph and run it to completion, returning the
/// family's own makespan: virtual-time delta of the monotone elapsed()
/// on sim, wall-clock around submit+taskwait on threads (so idle host
/// time between families never leaks into the measurement).
double run_family(Runtime& rt, const GraphSpec& spec, Backend backend,
                  double task_cost) {
  SubmitGraphOptions submit_options;
  submit_options.task_cost = task_cost;
  submit_options.spin_bodies = backend == Backend::kThreads;
  const double virtual_before = rt.elapsed();
  const auto wall_before = std::chrono::steady_clock::now();
  submit_graph(rt, spec, submit_options);
  rt.taskwait();
  if (backend == Backend::kThreads) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_before)
        .count();
  }
  return rt.elapsed() - virtual_before;
}

RuntimeConfig make_config(const Options& options, const std::string& policy,
                          Backend backend, bool trace) {
  RuntimeConfig config;
  config.backend = backend;
  config.scheduler = policy;
  config.seed = options.seed;
  config.sched_trace = trace;
  return config;
}

void write_json(const Options& options, const Machine& machine,
                const std::vector<ResultRow>& rows) {
  std::ofstream out(options.json_path);
  if (!out) {
    std::fprintf(stderr, "could not write JSON to %s\n",
                 options.json_path.c_str());
    return;
  }
  out << "{\n"
      << "  \"mode\": \"" << (options.metg ? "metg" : "fixed") << "\",\n"
      << "  \"machine\": \"" << machine.summary() << "\",\n"
      << "  \"workers\": " << machine.worker_count() << ",\n"
      << "  \"width\": " << options.width << ",\n"
      << "  \"steps\": " << options.steps << ",\n"
      << "  \"payload_bytes\": " << options.payload << ",\n"
      << "  \"seed\": " << options.seed << ",\n"
      << "  \"metg_target\": " << options.metg_target << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& row = rows[i];
    out << "    {\"family\": \"" << to_string(row.family) << "\", "
        << "\"policy\": \"" << row.policy << "\", "
        << "\"backend\": \"" << to_string(row.backend) << "\", "
        << "\"nodes\": " << row.oracle.nodes << ", "
        << "\"edges\": " << row.oracle.edges << ", "
        << "\"critical_path\": " << row.oracle.critical_path << ", ";
    if (options.metg) {
      // JSON has no inf: all-overhead cells report null.
      out << "\"metg_seconds\": ";
      if (std::isfinite(row.metg.metg)) {
        out << row.metg.metg;
      } else {
        out << "null";
      }
      out << ", \"efficiency\": " << row.metg.efficiency
          << ", \"evaluations\": " << row.metg.evaluations
          << ", \"status\": \"" << metg_status(row.metg) << "\"";
    } else {
      out << "\"task_cost\": " << row.task_cost << ", "
          << "\"elapsed\": " << row.elapsed << ", "
          << "\"efficiency\": " << row.efficiency;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("results written to %s\n", options.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    print_usage();
    return 2;
  }

  std::vector<GraphFamily> families;
  if (options.family == "all") {
    families = all_families();
  } else {
    GraphFamily family;
    if (!parse_family(options.family, family)) {
      std::fprintf(stderr,
                   "unknown family '%s' (see --list-families)\n",
                   options.family.c_str());
      return 2;
    }
    families.push_back(family);
  }

  std::vector<std::string> policies;
  if (options.policy == "all") {
    policies = scheduler_factory_names();
  } else if (make_scheduler(options.policy) != nullptr) {
    policies.push_back(options.policy);
  } else {
    std::fprintf(stderr, "unknown policy '%s' (see --list-policies)\n",
                 options.policy.c_str());
    return 2;
  }

  std::vector<Backend> backends;
  if (options.backend == "sim") {
    backends = {Backend::kSim};
  } else if (options.backend == "threads") {
    backends = {Backend::kThreads};
  } else if (options.backend == "both") {
    backends = {Backend::kSim, Backend::kThreads};
  } else {
    std::fprintf(stderr, "unknown backend '%s' (sim, threads or both)\n",
                 options.backend.c_str());
    return 2;
  }

  if (options.metg && options.metg_lo >= options.metg_hi) {
    std::fprintf(stderr, "--metg-lo must be below --metg-hi\n");
    return 2;
  }

  const bool trace = !options.sched_trace_path.empty();
  if (trace && (options.metg || policies.size() != 1 || backends.size() != 1)) {
    std::fprintf(stderr,
                 "--sched-trace needs fixed-cost mode with exactly one "
                 "--policy and one --backend\n");
    return 2;
  }

  const Machine machine = make_minotauro_node(options.smp, options.gpus);
  const std::size_t workers = machine.worker_count();
  std::printf("machine: %s | families: %zu | policies: %zu | backends: %zu\n",
              machine.summary().c_str(), families.size(), policies.size(),
              backends.size());

  // Generate every requested graph once: generation is deterministic in
  // the parameters, so all (policy x backend) cells share the same specs.
  std::vector<GraphSpec> specs;
  for (const GraphFamily family : families) {
    TaskBenchParams params;
    params.family = family;
    params.width = options.width;
    params.steps = options.steps;
    params.payload_bytes = options.payload;
    params.fan = options.fan;
    params.seed = options.seed;
    specs.push_back(generate_graph(params));
    const GraphSpec& spec = specs.back();
    std::printf("graph %-9s %" PRIu64 " nodes, %zu edges, critical path %u\n",
                to_string(family), spec.node_count, spec.edges.size(),
                oracle_for(spec.params).critical_path);
  }

  std::vector<ResultRow> rows;
  if (options.metg) {
    std::printf("\n%-9s  %-20s  %-7s  %12s  %6s  %5s  %s\n", "family",
                "policy", "backend", "METG", "eff", "evals", "status");
    for (const Backend backend : backends) {
      for (const std::string& policy : policies) {
        for (const GraphSpec& spec : specs) {
          const GraphOracle oracle = oracle_for(spec.params);
          // Each probe gets a fresh Runtime: profiles learned at one task
          // cost must not warm-start the next probe.
          const EfficiencyFn probe = [&](Duration cost) {
            Runtime rt(machine, make_config(options, policy, backend, false));
            const double elapsed = run_family(rt, spec, backend, cost);
            return parallel_efficiency(oracle, cost, workers, elapsed);
          };
          ResultRow row;
          row.family = spec.params.family;
          row.policy = policy;
          row.backend = backend;
          row.oracle = oracle;
          row.metg =
              metg_bisect(probe, options.metg_lo, options.metg_hi,
                          options.metg_target, options.metg_tolerance);
          rows.push_back(row);
          if (std::isfinite(row.metg.metg)) {
            std::printf("%-9s  %-20s  %-7s  %9.0f us  %5.1f%%  %5d  %s\n",
                        to_string(row.family), policy.c_str(),
                        to_string(backend), row.metg.metg * 1e6,
                        row.metg.efficiency * 100.0, row.metg.evaluations,
                        metg_status(row.metg));
          } else {
            std::printf("%-9s  %-20s  %-7s  %12s  %6s  %5d  %s\n",
                        to_string(row.family), policy.c_str(),
                        to_string(backend), "inf", "-", row.metg.evaluations,
                        metg_status(row.metg));
          }
        }
      }
    }
  } else {
    std::printf("\n%-9s  %-20s  %-7s  %10s  %6s\n", "family", "policy",
                "backend", "elapsed", "eff");
    for (const Backend backend : backends) {
      for (const std::string& policy : policies) {
        // One Runtime per cell runs every family, so the decision trace
        // carries one task type per family (the per-type breakdown in
        // versa_trace_report separates them).
        Runtime rt(machine, make_config(options, policy, backend, trace));
        for (const GraphSpec& spec : specs) {
          const GraphOracle oracle = oracle_for(spec.params);
          ResultRow row;
          row.family = spec.params.family;
          row.policy = policy;
          row.backend = backend;
          row.oracle = oracle;
          row.task_cost = options.task_cost;
          row.elapsed = run_family(rt, spec, backend, options.task_cost);
          row.efficiency = parallel_efficiency(oracle, options.task_cost,
                                               workers, row.elapsed);
          rows.push_back(row);
          std::printf("%-9s  %-20s  %-7s  %8.2f ms  %5.1f%%\n",
                      to_string(row.family), policy.c_str(),
                      to_string(backend), row.elapsed * 1e3,
                      row.efficiency * 100.0);
        }
        if (trace) {
          // Legend: submit_graph declares one type per family, so the
          // trace's per-type breakdown maps back to families by name.
          std::printf("\ntrace task types:\n");
          for (TaskTypeId type = 0;
               type < rt.version_registry().task_type_count(); ++type) {
            std::printf("  type %u = %s\n", type,
                        rt.version_registry().task_name(type).c_str());
          }
          const auto& decision_trace = rt.scheduler().decision_trace();
          const std::string& path = options.sched_trace_path;
          if (write_sched_trace_csv(path, decision_trace,
                                    rt.scheduler().name())) {
            std::printf("scheduler trace written to %s\n", path.c_str());
          } else {
            std::fprintf(stderr, "could not write scheduler trace to %s\n",
                         path.c_str());
          }
        }
      }
    }
  }

  if (!options.json_path.empty()) {
    write_json(options, machine, rows);
  }
  return 0;
}
