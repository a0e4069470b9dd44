// Micro-benchmarks (google-benchmark) for the runtime's hot paths: event
// queue churn, dependence analysis, directory acquires, profile updates,
// versioning decisions, and end-to-end task throughput in simulation.
#include <benchmark/benchmark.h>

#include "bench_context.h"
#include "common/random.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/profile_table.h"
#include "sim/event_queue.h"
#include "task/dependency_analyzer.h"

namespace versa {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const std::size_t events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < events; ++i) {
      queue.schedule_at(static_cast<Time>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(queue.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(64)->Arg(512);

void BM_DependencyAnalysisChain(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    DependencyAnalyzer analyzer;
    std::vector<TaskId> preds;
    for (TaskId t = 0; t < tasks; ++t) {
      preds.clear();
      analyzer.add_task(t, {Access{0, AccessMode::kInOut, 0, 4096}}, preds);
      benchmark::DoNotOptimize(preds.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_DependencyAnalysisChain)->Arg(1024);

void BM_DependencyAnalysisRandomRanges(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    DependencyAnalyzer analyzer;
    Rng rng(1);
    std::vector<TaskId> preds;
    for (TaskId t = 0; t < tasks; ++t) {
      const std::uint64_t offset = rng.next_below(1 << 20);
      const std::uint64_t length = 1 + rng.next_below(1 << 16);
      const auto mode = static_cast<AccessMode>(rng.next_below(3));
      preds.clear();
      analyzer.add_task(t, {Access{0, mode, offset, length}}, preds);
      benchmark::DoNotOptimize(preds.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_DependencyAnalysisRandomRanges)->Arg(1024);

void BM_DirectoryAcquireMigrate(benchmark::State& state) {
  const Machine machine = make_minotauro_node(2, 2);
  DataDirectory directory(machine);
  const RegionId region = directory.register_region("r", 1 << 20);
  const SpaceId gpu0 = machine.worker(2).space;
  const SpaceId gpu1 = machine.worker(3).space;
  TransferList ops;
  for (auto _ : state) {
    ops.clear();
    directory.acquire({Access::inout_range(region, 0, 1 << 20)}, gpu0, ops);
    ops.clear();
    directory.acquire({Access::inout_range(region, 0, 1 << 20)}, gpu1, ops);
    benchmark::DoNotOptimize(ops.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_DirectoryAcquireMigrate);

void BM_ProfileRecordAndQuery(benchmark::State& state) {
  VersionRegistry registry;
  const TaskTypeId type = registry.declare_task("t");
  const VersionId v0 =
      registry.add_version(type, DeviceKind::kCuda, "a", nullptr, nullptr);
  const VersionId v1 =
      registry.add_version(type, DeviceKind::kSmp, "b", nullptr, nullptr);
  ProfileTable table(registry, {});
  std::uint64_t size = 0;
  for (auto _ : state) {
    size = (size + 4096) % (1 << 22);
    table.record(type, v0, size, 1e-3);
    table.record(type, v1, size, 2e-3);
    benchmark::DoNotOptimize(table.fastest_version(type, size));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfileRecordAndQuery);

void BM_EndToEndSimThroughput(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const Machine machine = make_minotauro_node(4, 2);
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr, make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr, make_constant_cost(4e-3));
    std::vector<RegionId> regions;
    for (int i = 0; i < 16; ++i) {
      regions.push_back(rt.register_data("r" + std::to_string(i), 1 << 16));
    }
    for (std::size_t i = 0; i < tasks; ++i) {
      rt.submit(t, {Access::inout(regions[i % regions.size()])});
    }
    rt.taskwait();
    benchmark::DoNotOptimize(rt.elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_EndToEndSimThroughput)->Arg(1000)->Arg(10000);

void BM_VersioningDecisionScaling(benchmark::State& state) {
  // Cost of the versioning scheduler's earliest-executor decision as the
  // machine grows: the decision scans (version, worker) pairs and sums
  // queue estimates, so this is the policy's hot path.
  const std::size_t smp = static_cast<std::size_t>(state.range(0));
  const Machine machine = make_minotauro_node(smp, 2);
  for (auto _ : state) {
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr,
                   make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr,
                   make_constant_cost(4e-3));
    std::vector<RegionId> regions;
    for (int i = 0; i < 32; ++i) {
      regions.push_back(rt.register_data("r" + std::to_string(i), 1 << 12));
    }
    for (int i = 0; i < 2000; ++i) {
      rt.submit(t, {Access::inout(regions[i % regions.size()])});
    }
    rt.taskwait();
    benchmark::DoNotOptimize(rt.elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_VersioningDecisionScaling)->Arg(2)->Arg(8);

}  // namespace
}  // namespace versa

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  versa::bench::report_hardware_concurrency();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
