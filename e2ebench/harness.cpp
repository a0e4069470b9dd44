// End-to-end benchmark harness for the versa runtime.
//
// Runs one workload as a sequence of episodes and prints one JSON line per
// episode on stdout (run.py aggregates them). Every episode builds its own
// runtime or service, so a process that dies mid-episode loses only that
// episode; run.py counts its operations as failed and starts the next
// planned episode in a fresh process. Episodes share the process, as the
// runs of a long-lived program would: a fresh process pays page faults on
// every first heap touch, which users of a warm runtime do not.
//
// All timing is taken from outside the runtime: untraced episodes read the
// clock only around whole graphs; traced episodes also time each call into
// a layer's public functions and, after the run, read what the runtime
// already records (task timestamps, transfer stats, scheduler counters) and
// replay the run's access lists through a standalone DependencyAnalyzer and
// DataDirectory.
//
//   e2ebench_harness --workload paper-sim|service-sim|hetero-threads|service-churn
//                    --seed N --seconds S --trace 0|1
//                    [--first-episode K] [--tiny]
//   e2ebench_harness --selftest

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/cholesky.h"
#include "apps/matmul.h"
#include "apps/pbpi.h"
#include "data/directory.h"
#include "machine/cost_model.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/versioning_scheduler.h"
#include "service/versa_service.h"
#include "task/dependency_analyzer.h"
#include "taskbench/graph_spec.h"

namespace versa::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Median of the last tenth of a series over the median of its first tenth:
/// how much a per-call cost grew over one run.
double growth(const std::vector<double>& series) {
  const std::size_t tenth = series.size() / 10;
  if (tenth == 0) return 1.0;
  const std::vector<double> first(series.begin(), series.begin() + tenth);
  const std::vector<double> last(series.end() - tenth, series.end());
  const double base = quantile(first, 0.5);
  return base > 0.0 ? quantile(last, 0.5) / base : 1.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Wall time of a fixed, repository-independent reference loop (ordered-map
/// and deque traffic, like the runtime's own bookkeeping).
double reference_loop_seconds() {
  std::map<std::uint64_t, std::uint64_t> map;
  std::deque<std::uint64_t> queue;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t sink = 0;
  const auto a = Clock::now();
  for (std::uint64_t i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map[x & 0xffff] += i;
    queue.push_back(x);
    if (queue.size() > 1024) {
      sink += queue.front();
      queue.pop_front();
    }
    if ((i & 3) == 0) map.erase(map.begin());
  }
  const auto b = Clock::now();
  if (sink == 42) std::fputs("", stderr);  // keep the loop observable
  return seconds_between(a, b);
}

/// A probe of how fast this host runs right now: the mean time of the
/// reference loop run on `threads` threads at once (as many as the workload
/// keeps busy, so contention on the other cores shows too).
double probe_seconds(int threads) {
  std::vector<double> times(threads, 0.0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&times, t] { times[t] = reference_loop_seconds(); });
  }
  for (std::thread& thread : pool) thread.join();
  double sum = 0.0;
  for (const double t : times) sum += t;
  return sum / threads;
}

std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

// --- output checks ---------------------------------------------------------

/// Operations an output check found wrong, with one message per kind.
struct CheckResult {
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void add(std::uint64_t count, std::string message) {
    if (count == 0) return;
    failed += count;
    messages.push_back(std::move(message));
  }
  void merge(const CheckResult& other) {
    failed += other.failed;
    messages.insert(messages.end(), other.messages.begin(),
                    other.messages.end());
  }
};

/// hetero-threads: every oracle edge is respected (a child starts no
/// earlier than each parent finished) and every node ran exactly once.
/// Times are indexed by flat node id; a child with any violated edge counts
/// as one failed task.
CheckResult check_stencil(const taskbench::GraphSpec& spec,
                          const std::vector<double>& start,
                          const std::vector<double>& finish,
                          std::uint64_t executed) {
  CheckResult result;
  std::vector<bool> bad(spec.node_count, false);
  for (const auto& [from, to] : spec.edges) {
    if (start[to] < finish[from]) bad[to] = true;
  }
  result.add(static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true)),
             "stencil: child started before an oracle parent finished");
  result.add(abs_diff(spec.node_count, executed),
             "stencil: executed bodies != node_count (" +
                 std::to_string(executed) + " vs " +
                 std::to_string(spec.node_count) + ")");
  return result;
}

/// paper-sim: each application executed exactly the tasks it submitted.
CheckResult check_app(const std::string& app, std::uint64_t expected,
                      std::uint64_t submitted, std::uint64_t executed) {
  CheckResult result;
  result.add(abs_diff(expected, submitted),
             app + ": submitted " + std::to_string(submitted) + " of " +
                 std::to_string(expected) + " tasks");
  result.add(abs_diff(submitted, executed),
             app + ": executed " + std::to_string(executed) + " of " +
                 std::to_string(submitted) + " submitted tasks");
  return result;
}

/// service-churn: admitted graphs' tasks all ran exactly once, and generous
/// quotas rejected nothing. Counts failed graphs.
CheckResult check_service(std::uint64_t admitted_graphs,
                          std::uint64_t admitted_tasks,
                          std::uint64_t executions, std::uint64_t rejected) {
  CheckResult result;
  result.add(std::min(admitted_graphs, abs_diff(admitted_tasks, executions)),
             "service: body executions " + std::to_string(executions) +
                 " != admitted tasks " + std::to_string(admitted_tasks));
  result.add(rejected, "service: " + std::to_string(rejected) +
                           " graphs rejected under generous quotas");
  return result;
}

// --- per-layer samples (traced episodes) -----------------------------------

struct LayerSamples {
  std::vector<double> submit_ns;
  std::vector<std::vector<double>> submit_series;  // one per submit stream
  std::vector<double> register_ns;
  double taskwait_s = 0.0;
  std::vector<double> add_task_ns;
  std::uint64_t preds = 0;
  std::vector<double> release_us;
  std::vector<double> queue_wait_us;
  std::vector<double> estimate_error;
  std::vector<double> body_us;
  std::vector<double> staging_us;
  double busy_s = 0.0;
  double capacity_s = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t gpu_tasks = 0;
  std::uint64_t learning = 0;
  std::uint64_t reprice_requests = 0;
  std::uint64_t reprice_flushes = 0;
  std::uint64_t push_batches = 0;
  std::uint64_t bytes = 0;
  std::uint64_t transfers = 0;
  std::uint64_t fallbacks = 0;
  std::vector<double> graph_submit_us;
  std::vector<double> graph_wait_us;
  std::vector<std::vector<double>> latency_series;  // one per client
  std::uint64_t rejected = 0;

  std::map<std::string, double> finish() const {
    std::map<std::string, double> m;
    m["runtime.submit_ns_p50"] = quantile(submit_ns, 0.5);
    m["runtime.submit_ns_p99"] = quantile(submit_ns, 0.99);
    std::vector<double> growths;
    for (const auto& s : submit_series) growths.push_back(growth(s));
    m["runtime.submit_growth"] = quantile(growths, 0.5);
    m["runtime.taskwait_s"] = taskwait_s;
    if (!register_ns.empty()) {
      m["runtime.register_data_ns_p50"] = quantile(register_ns, 0.5);
    }
    m["task.add_task_ns_p50"] = quantile(add_task_ns, 0.5);
    m["task.preds_per_task"] =
        add_task_ns.empty() ? 0.0
                            : static_cast<double>(preds) /
                                  static_cast<double>(add_task_ns.size());
    if (!release_us.empty()) {
      m["task.release_us_p50"] = quantile(release_us, 0.5);
    }
    m["sched.queue_wait_us_p50"] = quantile(queue_wait_us, 0.5);
    m["sched.queue_wait_us_p99"] = quantile(queue_wait_us, 0.99);
    m["sched.estimate_error_p50"] = quantile(estimate_error, 0.5);
    m["sched.learning_executions"] = static_cast<double>(learning);
    m["sched.gpu_task_share"] =
        tasks == 0 ? 0.0
                   : static_cast<double>(gpu_tasks) / static_cast<double>(tasks);
    m["sched.reprice_flushes_per_request"] =
        reprice_requests == 0 ? 0.0
                              : static_cast<double>(reprice_flushes) /
                                    static_cast<double>(reprice_requests);
    m["sched.push_batches_per_task"] =
        tasks == 0 ? 0.0
                   : static_cast<double>(push_batches) /
                         static_cast<double>(tasks);
    m["data.bytes_moved"] = static_cast<double>(bytes);
    m["data.transfer_count"] = static_cast<double>(transfers);
    m["data.consistent_fallbacks"] = static_cast<double>(fallbacks);
    m["data.staging_us_p50"] = quantile(staging_us, 0.5);
    m["exec.body_us_p50"] = quantile(body_us, 0.5);
    m["exec.worker_utilization"] = capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
    m["service.submit_us_p50"] = quantile(graph_submit_us, 0.5);
    m["service.wait_us_p50"] = quantile(graph_wait_us, 0.5);
    std::vector<double> lgrowth;
    for (const auto& s : latency_series) lgrowth.push_back(growth(s));
    m["service.latency_growth"] = quantile(lgrowth, 0.5);
    m["service.rejected"] = static_cast<double>(rejected);
    // Bases of the ratios above, so the report can print each with its base.
    m["base.tasks"] = static_cast<double>(tasks);
    m["base.reprice_requests"] = static_cast<double>(reprice_requests);
    m["base.graphs"] = static_cast<double>(graph_submit_us.size());
    return m;
  }
};

/// Oracle parents per task id (empty = no oracle for that task).
using ParentMap = std::unordered_map<TaskId, std::vector<TaskId>>;

/// Replay the run's access lists, in submission order, through a standalone
/// DependencyAnalyzer, timing each add_task.
void replay_analyzer(LayerSamples& layer, const TaskGraph& graph) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  for (const Task& task : graph.tasks()) {
    preds.clear();
    const auto a = Clock::now();
    analyzer.add_task(task.id, task.accesses, preds);
    const auto b = Clock::now();
    layer.add_task_ns.push_back(ns_between(a, b));
    layer.preds += preds.size();
  }
}

/// Replay the run's acquires, in start order and into the space of the
/// worker that ran each task, through a standalone DataDirectory, timing
/// each acquire. Regions are re-registered at their accessed extent, so
/// regions a service graph already unregistered replay too.
void replay_directory(LayerSamples& layer, const TaskGraph& graph,
                      const Machine& machine) {
  std::map<RegionId, std::uint64_t> extent;
  std::vector<const Task*> order;
  for (const Task& task : graph.tasks()) {
    if (task.state != TaskState::kFinished ||
        task.assigned_worker == kInvalidWorker) {
      continue;
    }
    order.push_back(&task);
    for (const Access& access : task.accesses) {
      std::uint64_t& e = extent[access.region];
      e = std::max(e, access.offset + access.length);
    }
  }
  std::stable_sort(order.begin(), order.end(), [](const Task* a, const Task* b) {
    return a->start_time < b->start_time;
  });
  DataDirectory directory(machine);
  std::unordered_map<RegionId, RegionId> remap;
  for (const auto& [region, bytes] : extent) {
    remap[region] = directory.register_region(
        "r" + std::to_string(region), std::max<std::uint64_t>(bytes, 1));
  }
  TransferList out;
  for (const Task* task : order) {
    AccessList accesses = task->accesses;
    for (Access& access : accesses) access.region = remap[access.region];
    const SpaceId space = machine.worker(task->assigned_worker).space;
    out.clear();
    const auto a = Clock::now();
    directory.acquire(accesses, space, out);
    const auto b = Clock::now();
    layer.staging_us.push_back(ns_between(a, b) / 1e3);
  }
}

/// Read what a quiescent runtime recorded, then replay its access lists
/// through the task and data layers.
void collect_runtime(LayerSamples& layer, Runtime& rt, const Machine& machine,
                     const ParentMap* parents) {
  const TaskGraph& graph = rt.task_graph();
  for (const Task& task : graph.tasks()) {
    if (task.state != TaskState::kFinished) continue;
    ++layer.tasks;
    layer.queue_wait_us.push_back((task.start_time - task.ready_time) * 1e6);
    layer.body_us.push_back(task.measured_duration * 1e6);
    layer.busy_s += task.measured_duration;
    if (task.scheduler_estimate > 0.0 && task.measured_duration > 0.0) {
      layer.estimate_error.push_back(
          std::fabs(task.scheduler_estimate - task.measured_duration) /
          task.measured_duration);
    }
    if (task.chosen_version != kInvalidVersion &&
        rt.version_registry().version(task.chosen_version).device ==
            DeviceKind::kCuda) {
      ++layer.gpu_tasks;
    }
    if (parents != nullptr) {
      const auto it = parents->find(task.id);
      if (it != parents->end() && !it->second.empty()) {
        Time latest = 0.0;
        for (TaskId p : it->second) {
          latest = std::max(latest, graph.task(p).finish_time);
        }
        layer.release_us.push_back((task.ready_time - latest) * 1e6);
      }
    }
  }
  layer.capacity_s += static_cast<double>(machine.worker_count()) * rt.elapsed();
  if (auto* queue = dynamic_cast<QueueScheduler*>(&rt.scheduler())) {
    layer.reprice_requests += queue->reprice_requests();
    layer.reprice_flushes += queue->reprice_flushes();
    layer.push_batches += queue->buffer_push_batches();
  }
  if (auto* versioning = dynamic_cast<VersioningScheduler*>(&rt.scheduler())) {
    layer.learning += versioning->learning_executions();
  }
  const TransferStats stats = rt.transfer_stats();
  layer.bytes += stats.total_bytes();
  layer.transfers += stats.total_count();
  layer.fallbacks += stats.consistent_fallback_count;
  replay_analyzer(layer, graph);
  replay_directory(layer, graph, machine);
}

// --- episode results --------------------------------------------------------

struct EpisodeResult {
  double setup_s = 0.0;
  double run_s = 0.0;  ///< first submit to last completion, summed over graphs
  std::uint64_t tasks = 0;
  std::uint64_t ops = 0;
  std::uint64_t graphs = 0;
  double makespan_s = 0.0;
  bool virtual_clock = false;  ///< makespan_s is sim (virtual) time
  std::vector<double> latency_us;
  CheckResult checks;
  std::map<std::string, double> layer;
};

// --- paper-sim ----------------------------------------------------------------

/// One of the paper's three hybrid applications on a simulated MinoTauro
/// node (8 SMP + 2 GPU) under the versioning scheduler.
struct PaperApp {
  std::string name;
  std::unique_ptr<apps::MatmulApp> matmul;
  std::unique_ptr<apps::CholeskyApp> cholesky;
  std::unique_ptr<apps::PbpiApp> pbpi;

  void submit_all() {
    if (matmul) matmul->submit_all();
    if (cholesky) cholesky->submit_all();
    if (pbpi) pbpi->submit_all();
  }
  std::size_t task_count() const {
    if (matmul) return matmul->task_count();
    if (cholesky) return cholesky->task_count();
    return pbpi->task_count();
  }
};

constexpr int kPaperApps = 3;

PaperApp make_paper_app(Runtime& rt, int which, bool tiny) {
  PaperApp app;
  if (which == 0) {
    apps::MatmulParams p;  // matmul-hyb 16384 / 1024
    if (tiny) p.n = 4096;
    app.name = "matmul-hyb";
    app.matmul = std::make_unique<apps::MatmulApp>(rt, p);
  } else if (which == 1) {
    apps::CholeskyParams p;  // cholesky-hyb 32768 / 2048
    if (tiny) p.n = 8192;
    app.name = "cholesky-hyb";
    app.cholesky = std::make_unique<apps::CholeskyApp>(rt, p);
  } else {
    apps::PbpiParams p;  // pbpi-hyb, 50 generations
    if (tiny) p.generations = 2;
    app.name = "pbpi-hyb";
    app.pbpi = std::make_unique<apps::PbpiApp>(rt, p);
  }
  return app;
}

RuntimeConfig sim_config(std::uint64_t seed) {
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.seed = seed;
  return config;
}

struct Submission {
  TaskTypeId type = kInvalidTaskType;
  AccessList accesses;
  std::string label;
  int priority = 0;
};

/// The submission stream of each app (independent of the seed), captured
/// once per process so traced episodes can time every Runtime::submit.
const std::vector<std::vector<Submission>>& paper_streams(bool tiny) {
  static std::vector<std::vector<Submission>> streams;
  if (!streams.empty()) return streams;
  for (int which = 0; which < kPaperApps; ++which) {
    const Machine machine = make_minotauro_node(8, 2);
    Runtime rt(machine, sim_config(1));
    PaperApp app = make_paper_app(rt, which, tiny);
    app.submit_all();
    rt.taskwait();
    std::vector<Submission> stream;
    for (const Task& task : rt.task_graph().tasks()) {
      stream.push_back({task.type, task.accesses, task.label, task.priority});
    }
    streams.push_back(std::move(stream));
  }
  return streams;
}

std::uint64_t paper_planned_ops(bool tiny) {
  std::uint64_t total = 0;
  for (int which = 0; which < kPaperApps; ++which) {
    const Machine machine = make_minotauro_node(8, 2);
    Runtime rt(machine, sim_config(1));
    total += make_paper_app(rt, which, tiny).task_count();
  }
  return total;
}

EpisodeResult run_paper_sim(std::uint64_t seed, bool traced, bool tiny) {
  EpisodeResult result;
  result.virtual_clock = true;
  LayerSamples layer;
  const std::vector<std::vector<Submission>> no_streams;
  const auto& streams = traced ? paper_streams(tiny) : no_streams;
  for (int which = 0; which < kPaperApps; ++which) {
    const auto s0 = Clock::now();
    const Machine machine = make_minotauro_node(8, 2);
    Runtime rt(machine, sim_config(seed));
    PaperApp app = make_paper_app(rt, which, tiny);
    const auto s1 = Clock::now();
    result.setup_s += seconds_between(s0, s1);

    std::vector<Runtime::SubmitOptions> options;
    std::vector<AccessList> accesses;
    if (traced) {
      for (const Submission& sub : streams[which]) {
        Runtime::SubmitOptions o;
        o.label = sub.label;
        o.priority = sub.priority;
        options.push_back(std::move(o));
        accesses.push_back(sub.accesses);
      }
    }
    std::vector<double> series;
    series.reserve(accesses.size());
    const auto t0 = Clock::now();
    if (traced) {
      for (std::size_t i = 0; i < accesses.size(); ++i) {
        const auto a = Clock::now();
        rt.submit(streams[which][i].type, std::move(accesses[i]),
                  std::move(options[i]));
        const auto b = Clock::now();
        series.push_back(ns_between(a, b));
      }
    } else {
      app.submit_all();
    }
    const auto t1 = Clock::now();
    rt.taskwait();
    const auto t2 = Clock::now();

    result.run_s += seconds_between(t0, t2);
    result.latency_us.push_back(seconds_between(t0, t2) * 1e6);
    result.makespan_s += rt.elapsed();
    const std::uint64_t executed = rt.run_stats().total_tasks();
    result.tasks += executed;
    result.ops += app.task_count();
    ++result.graphs;
    result.checks.merge(check_app(app.name, app.task_count(),
                                  rt.task_graph().size(), executed));
    if (traced) {
      layer.submit_ns.insert(layer.submit_ns.end(), series.begin(), series.end());
      layer.submit_series.push_back(std::move(series));
      layer.taskwait_s += seconds_between(t1, t2);
      layer.graph_submit_us.push_back(seconds_between(t0, t1) * 1e6);
      layer.graph_wait_us.push_back(seconds_between(t1, t2) * 1e6);
      collect_runtime(layer, rt, machine, nullptr);
    }
  }
  if (traced) {
    layer.latency_series.push_back(result.latency_us);
    result.layer = layer.finish();
  }
  return result;
}

// --- hetero-threads -----------------------------------------------------------

constexpr double kSpinSeconds = 1e-6;

taskbench::GraphSpec stencil_spec(bool tiny) {
  taskbench::TaskBenchParams params;
  params.family = taskbench::GraphFamily::kStencil1D;
  params.width = 16;
  params.steps = tiny ? 64 : 2048;
  params.payload_bytes = 1024;
  return taskbench::generate_graph(params);
}

/// Raw outcome of one stencil graph run, indexed by flat node id.
struct StencilRun {
  std::vector<double> start;
  std::vector<double> finish;
  std::uint64_t executed = 0;
};

EpisodeResult run_hetero_threads(std::uint64_t seed, bool traced, bool tiny,
                                 StencilRun* raw = nullptr) {
  EpisodeResult result;
  LayerSamples layer;
  static const taskbench::GraphSpec spec = stencil_spec(tiny);
  const std::uint32_t width = spec.params.width;

  std::atomic<std::uint64_t> executed{0};
  const auto s0 = Clock::now();
  const Machine machine = make_minotauro_node(2, 1);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = "versioning";
  config.seed = seed;
  Runtime rt(machine, config);
  const TaskTypeId type = rt.declare_task("stencil");
  const TaskFn body = [&executed](TaskContext&) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kSpinSeconds));
    while (Clock::now() < deadline) {
    }
    executed.fetch_add(1, std::memory_order_relaxed);
  };
  for (const DeviceKind kind : {DeviceKind::kSmp, DeviceKind::kCuda}) {
    rt.add_version(type, kind, to_string(kind), body,
                   make_constant_cost(kSpinSeconds));
  }
  std::vector<std::vector<RegionId>> buffers(2);
  for (int parity = 0; parity < 2; ++parity) {
    for (std::uint32_t i = 0; i < width; ++i) {
      const auto a = Clock::now();
      buffers[parity].push_back(rt.register_data(
          "s" + std::to_string(parity) + "_" + std::to_string(i),
          spec.params.payload_bytes));
      const auto b = Clock::now();
      if (traced) layer.register_ns.push_back(ns_between(a, b));
    }
  }
  const auto s1 = Clock::now();
  result.setup_s = seconds_between(s0, s1);

  // Access lists are inputs: built before the clock starts.
  std::vector<AccessList> accesses(spec.node_count);
  std::size_t cursor = 0;
  for (std::uint32_t t = 0; t < spec.level_width.size(); ++t) {
    for (std::uint32_t i = 0; i < spec.level_width[t]; ++i) {
      const std::uint64_t flat = spec.level_offset[t] + i;
      AccessList& list = accesses[flat];
      list.push_back(Access::out(buffers[t % 2][i]));
      while (cursor < spec.edges.size() && spec.edges[cursor].second == flat) {
        const auto [ps, pi] = spec.locate(spec.edges[cursor].first);
        list.push_back(Access::in(buffers[ps % 2][pi]));
        ++cursor;
      }
    }
  }

  std::vector<TaskId> ids(spec.node_count, kInvalidTask);
  std::vector<double> series;
  if (traced) series.reserve(spec.node_count);
  const auto t0 = Clock::now();
  if (traced) {
    for (std::uint64_t i = 0; i < spec.node_count; ++i) {
      const auto a = Clock::now();
      ids[i] = rt.submit(type, std::move(accesses[i]));
      const auto b = Clock::now();
      series.push_back(ns_between(a, b));
    }
  } else {
    for (std::uint64_t i = 0; i < spec.node_count; ++i) {
      ids[i] = rt.submit(type, std::move(accesses[i]));
    }
  }
  const auto t1 = Clock::now();
  rt.taskwait();
  const auto t2 = Clock::now();

  result.run_s = seconds_between(t0, t2);
  result.latency_us.push_back(result.run_s * 1e6);
  result.makespan_s = rt.elapsed();
  result.tasks = executed.load();
  result.ops = spec.node_count;
  result.graphs = 1;

  StencilRun run;
  run.start.resize(spec.node_count);
  run.finish.resize(spec.node_count);
  for (std::uint64_t i = 0; i < spec.node_count; ++i) {
    const Task& task = rt.task_graph().task(ids[i]);
    run.start[i] = task.start_time;
    run.finish[i] = task.finish_time;
  }
  run.executed = result.tasks;
  result.checks = check_stencil(spec, run.start, run.finish, run.executed);
  if (raw != nullptr) *raw = run;

  if (traced) {
    ParentMap parents;
    for (const auto& [from, to] : spec.edges) {
      parents[ids[to]].push_back(ids[from]);
    }
    layer.submit_ns = series;
    layer.submit_series.push_back(std::move(series));
    layer.taskwait_s = seconds_between(t1, t2);
    layer.graph_submit_us.push_back(seconds_between(t0, t1) * 1e6);
    layer.graph_wait_us.push_back(seconds_between(t1, t2) * 1e6);
    layer.latency_series.push_back(result.latency_us);
    collect_runtime(layer, rt, machine, &parents);
    result.layer = layer.finish();
  }
  return result;
}

// --- service-churn and service-sim ----------------------------------------------

constexpr int kClients = 2;

/// Rounds per client: the thread backend's 2 x 500 graphs keep an episode
/// short enough that an abort loses little; the sim is faster.
int service_rounds(bool tiny, Backend backend) {
  if (tiny) return 50;
  return backend == Backend::kSim ? 2000 : 500;
}

/// Virtual duration of a service task under the sim backend.
constexpr double kServiceTaskSeconds = 10e-6;

/// A 4-task inout chain on one region.
service::GraphSpec chain_graph(TaskTypeId type, std::uint64_t bytes) {
  service::GraphSpec spec;
  spec.regions.push_back({"chain", bytes});
  for (int i = 0; i < 4; ++i) {
    spec.tasks.push_back({type, {{0, AccessMode::kInOut}}, 0, {}});
  }
  return spec;
}

/// Fan-out/fan-in: a source, four parts reading it, a sink reading them.
service::GraphSpec fan_graph(TaskTypeId type, std::uint64_t bytes) {
  service::GraphSpec spec;
  spec.regions.push_back({"src", bytes});
  for (int i = 0; i < 4; ++i) {
    spec.regions.push_back({"part" + std::to_string(i), bytes});
  }
  spec.regions.push_back({"sink", bytes});
  spec.tasks.push_back({type, {{0, AccessMode::kOut}}, 0, {}});
  for (std::size_t i = 1; i <= 4; ++i) {
    spec.tasks.push_back(
        {type, {{0, AccessMode::kIn}, {i, AccessMode::kOut}}, 0, {}});
  }
  spec.tasks.push_back({type,
                        {{1, AccessMode::kIn},
                         {2, AccessMode::kIn},
                         {3, AccessMode::kIn},
                         {4, AccessMode::kIn},
                         {5, AccessMode::kOut}},
                        0,
                        {}});
  return spec;
}

/// Oracle parents of a chain (4 tasks) or fan (6 tasks) graph, given its
/// task ids in submission order.
void service_parents(const std::vector<TaskId>& ids, ParentMap& parents) {
  if (ids.size() == 4) {
    for (std::size_t k = 1; k < 4; ++k) parents[ids[k]] = {ids[k - 1]};
  } else if (ids.size() == 6) {
    for (std::size_t k = 1; k <= 4; ++k) parents[ids[k]] = {ids[0]};
    parents[ids[5]] = {ids[1], ids[2], ids[3], ids[4]};
  }
}

struct ClientLog {
  std::vector<double> latency_us;
  std::vector<double> submit_us;
  std::vector<double> wait_us;
  std::vector<double> submit_ns_per_task;
  std::uint64_t admitted_graphs = 0;
  std::uint64_t admitted_tasks = 0;
  std::uint64_t rejected = 0;

  /// One admitted graph: submitted from `a` to `b`, waited until `d`.
  void record(const service::GraphSpec& spec, Clock::time_point a,
              Clock::time_point b, Clock::time_point d, bool traced) {
    ++admitted_graphs;
    admitted_tasks += spec.tasks.size();
    latency_us.push_back(seconds_between(a, d) * 1e6);
    if (traced) {
      submit_us.push_back(seconds_between(a, b) * 1e6);
      wait_us.push_back(seconds_between(b, d) * 1e6);
      submit_ns_per_task.push_back(ns_between(a, b) /
                                   static_cast<double>(spec.tasks.size()));
    }
  }
};

/// Two tenants in a closed loop on VersaService. On the thread backend each
/// tenant is a client thread; under the sim backend one thread drives both
/// sessions, so each round both tenants submit (the fair-share gate sees two
/// tenants' graphs in flight) and then both wait.
EpisodeResult run_service(std::uint64_t seed, bool traced, bool tiny,
                          Backend backend) {
  EpisodeResult result;
  LayerSamples layer;
  const bool sim = backend == Backend::kSim;
  result.virtual_clock = sim;
  const int rounds = service_rounds(tiny, backend);
  // The seed picks the region sizes (1-16 KiB); they only feed the byte
  // quota, which is generous.
  const std::uint64_t bytes = 1024 * (1 + (seed * 2654435761u) % 16);

  std::atomic<std::uint64_t> executed{0};
  const auto s0 = Clock::now();
  const Machine machine = make_smp_machine(2);
  service::VersaServiceConfig config;
  config.runtime.backend = backend;
  config.runtime.scheduler = "versioning";
  config.runtime.seed = seed;
  service::VersaService svc(machine, config);
  const TaskTypeId type = svc.runtime().declare_task("churn");
  svc.runtime().add_version(
      type, DeviceKind::kSmp, "smp",
      [&executed](TaskContext&) {
        executed.fetch_add(1, std::memory_order_relaxed);
      },
      sim ? make_constant_cost(kServiceTaskSeconds) : nullptr);
  std::vector<service::Session> sessions;
  for (int c = 0; c < kClients; ++c) {
    service::TenantQuota quota;  // unlimited tasks and bytes
    quota.weight = 1;
    sessions.push_back(svc.open_session("tenant" + std::to_string(c), quota));
  }
  const auto s1 = Clock::now();
  result.setup_s = seconds_between(s0, s1);

  const service::GraphSpec graphs[2] = {chain_graph(type, bytes),
                                        fan_graph(type, bytes)};
  std::vector<ClientLog> logs(kClients);
  Clock::time_point t0;
  if (sim) {
    t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
      service::SubmitResult submitted[kClients];
      Clock::time_point a[kClients];
      Clock::time_point b[kClients];
      for (int c = 0; c < kClients; ++c) {
        a[c] = Clock::now();
        submitted[c] = sessions[c].submit(graphs[(r + c) % 2]);
        b[c] = Clock::now();
        if (!submitted[c].admitted()) ++logs[c].rejected;
      }
      for (int c = 0; c < kClients; ++c) {
        if (!submitted[c].admitted()) continue;
        sessions[c].wait(submitted[c].graph);
        logs[c].record(graphs[(r + c) % 2], a[c], b[c], Clock::now(), traced);
      }
    }
  } else {
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[c];
        log.latency_us.reserve(rounds);
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int r = 0; r < rounds; ++r) {
          const service::GraphSpec& spec = graphs[(r + c) % 2];
          const auto a = Clock::now();
          const service::SubmitResult submitted = sessions[c].submit(spec);
          const auto b = Clock::now();
          if (!submitted.admitted()) {
            ++log.rejected;
            continue;
          }
          sessions[c].wait(submitted.graph);
          log.record(spec, a, b, Clock::now(), traced);
        }
      });
    }
    t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
  }
  const auto t1 = Clock::now();
  svc.runtime().taskwait();
  const auto t2 = Clock::now();

  result.run_s = seconds_between(t0, t1);
  result.makespan_s = svc.runtime().elapsed();
  result.tasks = executed.load();
  result.ops = static_cast<std::uint64_t>(kClients) * rounds;
  std::uint64_t admitted_tasks = 0;
  std::uint64_t rejected = 0;
  for (const ClientLog& log : logs) {
    result.graphs += log.admitted_graphs;
    admitted_tasks += log.admitted_tasks;
    rejected += log.rejected;
    result.latency_us.insert(result.latency_us.end(), log.latency_us.begin(),
                             log.latency_us.end());
  }
  result.checks =
      check_service(result.graphs, admitted_tasks, result.tasks, rejected);

  if (traced) {
    for (const ClientLog& log : logs) {
      layer.submit_ns.insert(layer.submit_ns.end(),
                             log.submit_ns_per_task.begin(),
                             log.submit_ns_per_task.end());
      layer.submit_series.push_back(log.submit_ns_per_task);
      layer.graph_submit_us.insert(layer.graph_submit_us.end(),
                                   log.submit_us.begin(), log.submit_us.end());
      layer.graph_wait_us.insert(layer.graph_wait_us.end(), log.wait_us.begin(),
                                 log.wait_us.end());
      layer.latency_series.push_back(log.latency_us);
    }
    layer.taskwait_s = seconds_between(t1, t2);
    layer.rejected = rejected;
    std::map<GraphId, std::vector<TaskId>> by_graph;
    for (const Task& task : svc.runtime().task_graph().tasks()) {
      if (task.graph != kDefaultGraph) by_graph[task.graph].push_back(task.id);
    }
    // Release latency is wall time only on threads; sim release is instant.
    ParentMap parents;
    for (const auto& [graph, ids] : by_graph) service_parents(ids, parents);
    collect_runtime(layer, svc.runtime(), machine, sim ? nullptr : &parents);
    result.layer = layer.finish();
  }
  return result;
}

// --- output -------------------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_episode(std::uint64_t index, bool traced, bool warmup,
                   const EpisodeResult& r, double probe_s) {
  std::ostringstream out;
  out << "{\"episode\":" << index << ",\"traced\":" << (traced ? 1 : 0)
      << ",\"warmup\":" << (warmup ? "true" : "false")
      << ",\"setup_s\":" << json_number(r.setup_s)
      << ",\"run_s\":" << json_number(r.run_s)
      << ",\"probe_s\":" << json_number(probe_s) << ",\"tasks\":" << r.tasks
      << ",\"ops\":" << r.ops << ",\"failed\":" << r.checks.failed
      << ",\"graphs\":" << r.graphs
      << ",\"makespan_s\":" << json_number(r.makespan_s)
      << ",\"virtual_clock\":" << (r.virtual_clock ? "true" : "false")
      << ",\"rss_mb\":" << json_number(peak_rss_mb())
      << ",\"latency_p50_us\":" << json_number(quantile(r.latency_us, 0.5))
      << ",\"latency_p99_us\":" << json_number(quantile(r.latency_us, 0.99))
      << ",\"violations\":[";
  for (std::size_t i = 0; i < r.checks.messages.size(); ++i) {
    out << (i ? "," : "") << json_string(r.checks.messages[i]);
  }
  out << "],\"layer\":{";
  bool first = true;
  for (const auto& [name, value] : r.layer) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_number(value);
    first = false;
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stdout);
  std::fflush(stdout);
}

// --- self-test ------------------------------------------------------------------

/// Each output check must pass on real output and fire on a fabricated
/// violation of it.
int selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  StencilRun run;
  const EpisodeResult hetero = run_hetero_threads(1, false, true, &run);
  const taskbench::GraphSpec spec = stencil_spec(true);
  expect(hetero.checks.failed == 0, "stencil check passes a real run");
  {
    StencilRun bad = run;
    const auto [from, to] = spec.edges.back();
    bad.start[to] = bad.finish[from] - 1e-6;
    expect(check_stencil(spec, bad.start, bad.finish, bad.executed).failed == 1,
           "stencil check fires on an order-violating start time");
  }
  expect(check_stencil(spec, run.start, run.finish, run.executed - 1).failed == 1,
         "stencil check fires on a missing execution");

  const EpisodeResult paper = run_paper_sim(1, false, true);
  expect(paper.checks.failed == 0 && paper.tasks == paper.ops,
         "app check passes a real run");
  expect(check_app("app", 10, 10, 9).failed == 1,
         "app check fires on a missing execution");
  expect(check_app("app", 10, 9, 9).failed == 1,
         "app check fires on a missing submission");

  for (const Backend backend : {Backend::kSim, Backend::kThreads}) {
    const EpisodeResult svc = run_service(1, false, true, backend);
    expect(svc.checks.failed == 0 && svc.graphs == svc.ops,
           backend == Backend::kSim ? "service check passes a real sim run"
                                    : "service check passes a real thread run");
  }
  expect(check_service(10, 50, 49, 0).failed == 1,
         "service check fires on a missing body execution");
  expect(check_service(10, 50, 50, 1).failed == 1,
         "service check fires on a rejection");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 [--first-episode K] [--tiny]\n"
               "       e2ebench_harness --selftest\n");
  return 2;
}

}  // namespace
}  // namespace versa::e2e

int main(int argc, char** argv) {
  using namespace versa::e2e;
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  bool tiny = false;
  double seconds = 0.0;
  std::uint64_t episode = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") return selftest();
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--first-episode" && has_value) {
      episode = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  std::function<EpisodeResult(std::uint64_t, bool)> run;
  std::uint64_t planned_ops = 0;
  int busy_threads = 4;
  if (workload == "paper-sim") {
    run = [tiny](std::uint64_t s, bool t) { return run_paper_sim(s, t, tiny); };
    planned_ops = paper_planned_ops(tiny);
    busy_threads = 1;
  } else if (workload == "hetero-threads") {
    run = [tiny](std::uint64_t s, bool t) {
      return run_hetero_threads(s, t, tiny);
    };
    planned_ops = stencil_spec(tiny).node_count;
  } else if (workload == "service-churn" || workload == "service-sim") {
    const versa::Backend backend =
        workload == "service-sim" ? versa::Backend::kSim : versa::Backend::kThreads;
    run = [tiny, backend](std::uint64_t s, bool t) {
      return run_service(s, t, tiny, backend);
    };
    planned_ops = static_cast<std::uint64_t>(kClients) *
                  service_rounds(tiny, backend);
    if (backend == versa::Backend::kSim) busy_threads = 1;
  } else {
    return usage();
  }

  std::printf("{\"host\":{\"hardware_concurrency\":%u,\"compiler\":%s,"
              "\"build_type\":%s}}\n",
              std::thread::hardware_concurrency(),
              json_string(__VERSION__).c_str(),
              json_string(E2EBENCH_BUILD_TYPE).c_str());
  std::fflush(stdout);

  // Traced runs alternate untraced (even) and traced (odd) episodes, so the
  // two sets see the same host conditions and their difference is the
  // tracing overhead. A process's first episode is its warm-up: it is
  // checked and counted, but run.py leaves its times out, since it pays
  // the process's first heap and thread touches. A process always completes
  // at least one measured episode of each kind.
  const auto start = Clock::now();
  const std::uint64_t first = episode;
  while (seconds_between(start, Clock::now()) < seconds ||
         episode - first < (trace ? 3u : 2u)) {
    const bool traced = trace && episode % 2 == 1;
    std::printf("{\"begin\":%llu,\"ops\":%llu}\n",
                static_cast<unsigned long long>(episode),
                static_cast<unsigned long long>(planned_ops));
    std::fflush(stdout);
    // Episode seeds derive from the run seed, so a seed fixes every input.
    // The host-speed probe brackets the episode.
    const double probe_before = probe_seconds(busy_threads);
    const EpisodeResult result = run(seed * 1000003u + episode, traced);
    const double probe_s = (probe_before + probe_seconds(busy_threads)) / 2.0;
    print_episode(episode, traced, episode == first, result, probe_s);
    ++episode;
  }
  return 0;
}
