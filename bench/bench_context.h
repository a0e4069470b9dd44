// Shared bench context: a fake SchedulerContext for driving a policy
// without a full runtime (bench_micro_sched, bench_thread_scale), and
// host reporting for the concurrency micro-benchmarks (bench_thread_scale,
// bench_data_path, bench_service).
//
// These benches measure contention, so their numbers are meaningless on a
// starved host: a single-core CI runner flat-lines every scaling curve and
// the JSON output gives no hint why. Every concurrency bench therefore
// (1) records the detected hardware_concurrency in the benchmark context
// (it lands in the JSON "context" block next to num_cpus) and (2) prints a
// loud stderr warning when fewer than four cores are available.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "data/directory.h"
#include "sched/scheduler.h"

namespace versa::bench {

/// Data-set size of every BenchContext task.
constexpr std::uint64_t kTaskSize = 1 << 20;

/// SchedulerContext with one task type (SMP main version, CUDA
/// alternative) that records the last assignment target.
class BenchContext : public SchedulerContext {
 public:
  explicit BenchContext(Machine machine)
      : machine_(std::move(machine)), directory_(machine_) {
    type_ = registry_.declare_task("t");
    registry_.add_version(type_, DeviceKind::kSmp, "smp", nullptr, nullptr);
    registry_.add_version(type_, DeviceKind::kCuda, "gpu", nullptr, nullptr);
  }

  const Machine& machine() const override { return machine_; }
  const VersionRegistry& registry() const override { return registry_; }
  DataDirectory& directory() override { return directory_; }
  TaskGraph& graph() override { return graph_; }
  Time now() const override { return 0.0; }
  void task_assigned(TaskId, WorkerId worker) override {
    last_worker_ = worker;
  }

  Task& ready_task() {
    Task& task = graph_.create_task(type_, {}, kTaskSize, "");
    task.state = TaskState::kReady;
    return task;
  }

  VersionRegistry registry_;
  Machine machine_;
  DataDirectory directory_;
  TaskGraph graph_;
  TaskTypeId type_ = kInvalidTaskType;
  WorkerId last_worker_ = kInvalidWorker;
};

/// Detected core count (0 when the implementation cannot tell).
///
/// Always emits the "hardware_concurrency" context field — including the
/// cores == 0 detection-failure case, so a JSON dump without the field
/// means the bench never called this, not that detection failed. Safe to
/// call more than once; the context entry is added exactly once.
inline unsigned report_hardware_concurrency() {
  const unsigned cores = std::thread::hardware_concurrency();
  static const bool emitted = [cores] {
    ::benchmark::AddCustomContext("hardware_concurrency",
                                  std::to_string(cores));
    return true;
  }();
  (void)emitted;
  if (cores < 4) {
    std::fprintf(
        stderr,
        "\n*** WARNING: only %u hardware thread%s detected ***\n"
        "*** concurrency benchmarks need >= 4 cores; scaling curves on\n"
        "*** this host will flat-line and should not be quoted.\n\n",
        cores, cores == 1 ? "" : "s");
  }
  return cores;
}

}  // namespace versa::bench
