// Ablation — external profile hints (§VII future work #3): a first run
// writes its learned TaskVersionSet tables to the profile store; a second
// run loads them and starts every group in the reliable phase. The delta is
// the learning-phase cost, which the paper calls out as the versioning
// scheduler's main overhead on short runs (Cholesky, §V-B2).
#include <cstdio>

#include "common/string_util.h"
#include "machine/presets.h"
#include "perf/report.h"
#include "runtime/runtime.h"

using namespace versa;

namespace {

struct Outcome {
  double elapsed_ms;
  std::uint64_t slow_runs;
};

Outcome run(std::size_t tasks, const std::string& load,
            const std::string& save) {
  const Machine machine = make_minotauro_node(4, 2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.profile.lambda = 3;
  config.profile_load_path = load;
  config.profile_save_path = save;

  Outcome outcome{};
  {
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("kernel");
    rt.add_version(t, DeviceKind::kCuda, "gpu", nullptr,
                   make_constant_cost(2e-3));
    const VersionId smp = rt.add_version(t, DeviceKind::kSmp, "smp", nullptr,
                                         make_constant_cost(60e-3));
    const RegionId r = rt.register_data("data", 4 << 20);
    for (std::size_t i = 0; i < tasks; ++i) {
      rt.submit(t, {Access::in(r)});
    }
    rt.taskwait();
    outcome.elapsed_ms = rt.elapsed() * 1e3;
    outcome.slow_runs = rt.run_stats().count(smp);
  }
  return outcome;
}

}  // namespace

int main() {
  std::printf(
      "Ablation: profile hints across runs (gpu 2 ms vs smp 60 ms, "
      "lambda=3)\nShort runs feel the learning phase the most (cf. "
      "Cholesky, §V-B2).\n\n");

  TablePrinter table({"tasks", "cold: elapsed / smp runs",
                      "hinted: elapsed / smp runs"});
  const std::string hints = "/tmp/versa_abl_hints.profile";
  for (const std::size_t tasks : {10u, 30u, 100u, 300u}) {
    std::remove(hints.c_str());
    const Outcome cold = run(tasks, "", hints);
    const Outcome warm = run(tasks, hints, "");
    table.add_row({std::to_string(tasks),
                   format_double(cold.elapsed_ms, 2) + " ms / " +
                       std::to_string(cold.slow_runs),
                   format_double(warm.elapsed_ms, 2) + " ms / " +
                       std::to_string(warm.slow_runs)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
