// Micro-benchmarks (google-benchmark) for directory contention: how fast
// placement code can price transfers while other threads query and
// mutate the same directory (one `data` mutex, DESIGN.md §13).
//
// BM_TransferCost has N threads querying at once; BM_ReadersUnderChurn
// keeps one thread mutating the directory while the rest read — the
// regime placement runs in on the thread backend, where workers stage
// data while the scheduler prices the next placements.
#include <benchmark/benchmark.h>

#include "bench_context.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/directory.h"
#include "machine/presets.h"

namespace versa {
namespace {

constexpr std::size_t kRegions = 64;
constexpr std::uint64_t kRegionBytes = 1 << 20;
constexpr std::size_t kProbes = 256;  // precomputed queries per thread

/// One directory shared by every thread of a benchmark run, pre-seeded
/// with copies scattered across the device spaces so transfer_cost has
/// real link arithmetic to do.
struct SharedDirectory {
  Machine machine = make_minotauro_node(2, 2);
  DataDirectory directory{machine};
  std::vector<RegionId> regions;
  std::vector<SpaceId> device_spaces;

  SharedDirectory() {
    for (std::size_t s = 0; s < machine.space_count(); ++s) {
      if (s != kHostSpace) device_spaces.push_back(static_cast<SpaceId>(s));
    }
    TransferList ops;
    for (std::size_t r = 0; r < kRegions; ++r) {
      regions.push_back(
          directory.register_region("r" + std::to_string(r), kRegionBytes));
      const SpaceId space = device_spaces[r % device_spaces.size()];
      const AccessList accesses = {r % 3 == 0 ? Access::inout(regions.back())
                                              : Access::in(regions.back())};
      directory.acquire(accesses, space, ops);
      ops.clear();
    }
  }
};

SharedDirectory& shared() {
  static SharedDirectory instance;
  return instance;
}

/// Per-thread probe set, built outside the timed loop so the hot loop
/// is nothing but the directory query.
std::vector<std::pair<AccessList, SpaceId>> make_probes(int thread_index) {
  SharedDirectory& sh = shared();
  Rng rng(7u + static_cast<std::uint64_t>(thread_index));
  std::vector<std::pair<AccessList, SpaceId>> probes;
  probes.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    const RegionId a = sh.regions[rng.next_below(kRegions)];
    const RegionId b = sh.regions[rng.next_below(kRegions)];
    AccessList accesses = {Access::in(a)};
    if (b != a) accesses.push_back(Access::in(b));
    const SpaceId space = static_cast<SpaceId>(
        rng.next_below(sh.machine.space_count()));
    probes.emplace_back(std::move(accesses), space);
  }
  return probes;
}

void BM_TransferCost(benchmark::State& state) {
  SharedDirectory& sh = shared();
  const auto probes = make_probes(state.thread_index());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [accesses, space] = probes[i++ % kProbes];
    benchmark::DoNotOptimize(sh.directory.transfer_cost(accesses, space));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransferCost)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Thread 0 mutates (read-mode acquires bouncing copies between
/// spaces), the rest price transfers concurrently: read throughput
/// under writer churn.
void BM_ReadersUnderChurn(benchmark::State& state) {
  SharedDirectory& sh = shared();
  if (state.thread_index() == 0) {
    TransferList ops;
    std::size_t i = 0;
    for (auto _ : state) {
      const RegionId region = sh.regions[i % kRegions];
      const SpaceId space = sh.device_spaces[i % sh.device_spaces.size()];
      ++i;
      const AccessList accesses = {Access::in(region)};
      sh.directory.acquire(accesses, space, ops);
      ops.clear();
    }
  } else {
    const auto probes = make_probes(state.thread_index());
    std::size_t i = 0;
    for (auto _ : state) {
      const auto& [accesses, space] = probes[i++ % kProbes];
      benchmark::DoNotOptimize(sh.directory.transfer_cost(accesses, space));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadersUnderChurn)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

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
