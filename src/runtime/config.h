// Runtime configuration. As in Nanos++, most knobs can also be set through
// environment variables so the same binary can be re-run under different
// schedulers without recompiling (§III):
//
//   VERSA_SCHEDULER        — scheduler name (fifo / dep-aware / affinity /
//                            versioning / versioning-locality /
//                            versioning-fastest); an unknown name warns
//                            and keeps the configured one
//   VERSA_LAMBDA           — learning-phase threshold λ
//   VERSA_PREFETCH         — 0/1, transfer overlap + prefetch (sim backend)
//   VERSA_SEED             — simulation RNG seed
//   VERSA_PROFILE_LOAD     — warm-start profile path (store or text hints)
//   VERSA_PROFILE_SAVE     — persist the learned profile on shutdown
//   VERSA_DRIFT            — 0/1, drift-adaptive relearning
//   VERSA_DRIFT_THRESHOLD  — CUSUM alarm threshold (normalized units)
//   VERSA_SCHED_TRACE      — 0/1, record the scheduler decision trace
//   VERSA_GRANULARITY      — off | auto | N, adaptive task granularity
//   VERSA_SANITIZE         — off | spec | race, dependence-spec sanitizer
#pragma once

#include <cstdint>
#include <string>

#include "sanitizer/sanitizer.h"
#include "sched/core/granularity.h"
#include "sched/profile_table.h"
#include "sim/noise.h"

namespace versa {

enum class Backend : std::uint8_t {
  kSim,      ///< discrete-event virtual time (paper figures)
  kThreads,  ///< real std::thread pool (functional runs)
};

struct RuntimeConfig {
  std::string scheduler = "versioning";
  ProfileConfig profile;
  Backend backend = Backend::kSim;

  /// Sim backend: overlap modelled data transfers with computation and
  /// prefetch task data as soon as tasks are assigned (§V-A enables both
  /// for all schedulers). The thread backend ignores it: its workers stage
  /// a task's data (bookkeeping only) right before running it.
  bool prefetch = true;

  sim::NoiseConfig noise;
  std::uint64_t seed = 42;

  /// Fallback virtual duration for versions without a cost model (sim).
  Duration default_task_duration = 1e-3;

  /// Failure injection (sim backend): per-attempt transient failure
  /// probability, and the attempt number at which success is forced.
  double failure_rate = 0.0;
  std::uint32_t max_attempts = 4;

  /// Thread backend: emulate modelled device speeds by sleeping each task
  /// to its cost model's duration (scaled by emulation_time_scale). This
  /// lets real-thread runs reproduce the simulated figures' *shape* in
  /// wall-clock time — simulated "GPU" workers really finish tasks faster
  /// than SMP workers, so the versioning scheduler learns the same
  /// ratios. Off by default (bodies run at native speed).
  bool emulate_costs = false;
  double emulation_time_scale = 1.0;

  /// Persistent profile store: loaded before the first task, saved at
  /// runtime shutdown. Load sniffs the content (signed native store, or a
  /// hand-written text hints file); save always writes the native store.
  /// Empty = disabled.
  std::string profile_load_path;
  std::string profile_save_path;

  /// Extra salt mixed into the machine signature — set it to a digest of
  /// the host calibration so re-calibrated installs reject stale stores.
  std::string profile_signature_token;

  /// Record the scheduling core's decision trace (a ring of the last 64Ki
  /// events; see sched/core/decision_trace.h). Free when off; versa_run
  /// --sched-trace renders it after the run.
  bool sched_trace = false;

  /// Adaptive task granularity (DESIGN.md §11): off (default, the
  /// controller is not even constructed, keeping fixed-seed figures
  /// byte-identical), auto (profile-guided split/fuse with CUSUM
  /// reversal), or a fixed split factor. Parsed from --granularity /
  /// VERSA_GRANULARITY via core::parse_granularity.
  core::GranularityConfig granularity;

  /// Dependence-spec sanitizer (DESIGN.md §12): off (default — the checker
  /// is not constructed, no shadow state exists and figure runs stay
  /// byte-identical), spec (per-task witness-vs-declaration conformance),
  /// or race (spec + vector-clock determinacy-race detection over a
  /// shadow-byte interval map). Parsed from --sanitize / VERSA_SANITIZE via
  /// sanitize::parse_sanitize_mode.
  sanitize::SanitizeConfig sanitize;
};

/// Overlay environment-variable overrides onto `config`.
RuntimeConfig apply_env_overrides(RuntimeConfig config);

}  // namespace versa
