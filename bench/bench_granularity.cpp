// Adaptive granularity (DESIGN.md §11) — auto split/fuse vs fixed tilings.
//
// On an asymmetric node (many slow SMP cores around one fast GPU) no
// single tile size wins: coarse tiles serialize the machine behind the
// GPU, fine tiles drown in per-launch overhead. The controller starts
// from the coarsest tiling, learns the per-group profile the versioning
// scheduler already maintains, and re-tiles submissions whose profiled
// mean dominates the busy spread. This harness measures a steady-state
// pass (second run, warm profile) of matmul for each fixed tiling with
// the controller off, then the coarsest tiling with --granularity=auto,
// and checks auto lands within a small margin of the best fixed choice.
//
// The fuse half gets its own gate: at a fine tile whose profiled mean
// sits under the fuse threshold, auto must coalesce k-loop siblings and
// beat the same tile with the controller off. The exit code fails the
// bench if either gate does not hold.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/matmul.h"
#include "bench_util.h"
#include "common/check.h"
#include "common/string_util.h"
#include "machine/presets.h"
#include "perf/report.h"
#include "perf/run_stats.h"
#include "runtime/runtime.h"

using namespace versa;

namespace {

constexpr std::size_t kEdge = 8192;
constexpr std::size_t kFineEdge = 2048;
constexpr std::size_t kFineTile = 128;
constexpr std::size_t kSmp = 12;
constexpr std::size_t kGpus = 1;
constexpr double kLaunchOverhead = 20e-6;

struct PassResult {
  double gflops = 0.0;
  std::uint64_t splits = 0;
  std::uint64_t fuses = 0;
};

// Run two passes of the same submission batch in one runtime; the first
// warms the profile (and, in auto mode, lets the controller observe the
// original granularity), the second is the steady state we report.
PassResult run(std::size_t edge, std::size_t tile,
               const std::string& granularity) {
  const Machine machine = make_minotauro_node(kSmp, kGpus);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  if (!granularity.empty()) {
    VERSA_CHECK(core::parse_granularity(granularity, config.granularity));
  }
  Runtime rt(machine, config);

  apps::MatmulParams params;
  params.n = edge;
  params.tile = tile;
  params.hybrid = true;
  params.launch_overhead = kLaunchOverhead;
  apps::MatmulApp app(rt, params);

  app.submit_all();
  rt.taskwait();
  const double warm = rt.elapsed();
  app.submit_all();
  rt.taskwait();

  PassResult result;
  result.gflops = gflops(app.total_flops(), rt.elapsed() - warm);
  if (const auto* controller = rt.granularity()) {
    result.splits = controller->stats().splits;
    result.fuses = controller->stats().fuses;
  }
  return result;
}

}  // namespace

int main() {
  std::printf(
      "Adaptive granularity: matmul %zu^2 on an asymmetric node "
      "(%zu SMP + %zu GPU, %.0f us launch overhead)\n\n",
      kEdge, kSmp, kGpus, kLaunchOverhead * 1e6);

  const std::vector<std::size_t> tilings = {512, 1024, 2048};
  TablePrinter table({"series", "tile", "steady pass", "splits", "fuses"});
  CsvWriter csv;
  csv.add_row({"series", "tile", "gflops"});

  double best_fixed = 0.0;
  for (const std::size_t tile : tilings) {
    const PassResult fixed = run(kEdge, tile, "off");
    best_fixed = std::max(best_fixed, fixed.gflops);
    table.add_row({"fixed", std::to_string(tile),
                   format_double(fixed.gflops, 1) + " GFLOP/s", "-", "-"});
    csv.add_row({"fixed", std::to_string(tile),
                 format_double(fixed.gflops, 1)});
  }

  const std::size_t coarse = tilings.back();
  const PassResult adaptive = run(kEdge, coarse, "auto");
  table.add_row({"auto", std::to_string(coarse),
                 format_double(adaptive.gflops, 1) + " GFLOP/s",
                 std::to_string(adaptive.splits),
                 std::to_string(adaptive.fuses)});
  csv.add_row({"auto", std::to_string(coarse),
               format_double(adaptive.gflops, 1)});

  std::printf("%s\n", table.to_string().c_str());
  versa::bench::maybe_write_csv("granularity", csv);

  // Soft tolerance: the controller starts from the worst fixed tiling and
  // must recover to (at least) the best one, minus a small margin for the
  // learning passes it cannot skip.
  const double floor = 0.95 * best_fixed;
  const bool split_pass = adaptive.gflops >= floor && adaptive.splits > 0;
  std::printf("auto vs best fixed: %.1f / %.1f GFLOP/s (floor %.1f) — %s\n",
              adaptive.gflops, best_fixed, floor,
              split_pass ? "OK" : "FAIL");

  // Fine tiles: per-task overhead dominates, so auto must fuse k-loop
  // siblings and beat the unfused run at the same tile.
  const PassResult fine_off = run(kFineEdge, kFineTile, "off");
  const PassResult fine_auto = run(kFineEdge, kFineTile, "auto");
  const bool fuse_pass =
      fine_auto.fuses > 0 && fine_auto.gflops > fine_off.gflops;
  std::printf(
      "fine tile %zu (matmul %zu^2): auto vs off: %.1f / %.1f GFLOP/s, "
      "%llu fuses — %s\n",
      kFineTile, kFineEdge, fine_auto.gflops, fine_off.gflops,
      static_cast<unsigned long long>(fine_auto.fuses),
      fuse_pass ? "OK" : "FAIL");
  return split_pass && fuse_pass ? 0 : 1;
}
