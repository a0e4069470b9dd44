#include "runtime/config.h"

#include <algorithm>
#include <cstdlib>

#include "common/log.h"
#include "sched/scheduler_factory.h"

namespace versa {

RuntimeConfig apply_env_overrides(RuntimeConfig config) {
  if (const char* name = std::getenv("VERSA_SCHEDULER")) {
    const std::vector<std::string> names = scheduler_factory_names();
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      config.scheduler = name;
    } else {
      VERSA_LOG(kWarn) << "ignoring unknown VERSA_SCHEDULER=" << name;
    }
  }
  if (const char* lambda = std::getenv("VERSA_LAMBDA")) {
    const long value = std::strtol(lambda, nullptr, 10);
    if (value >= 1) {
      config.profile.lambda = static_cast<std::uint32_t>(value);
    } else {
      VERSA_LOG(kWarn) << "ignoring invalid VERSA_LAMBDA=" << lambda;
    }
  }
  if (const char* prefetch = std::getenv("VERSA_PREFETCH")) {
    config.prefetch = std::string(prefetch) != "0";
  }
  if (const char* seed = std::getenv("VERSA_SEED")) {
    config.seed = std::strtoull(seed, nullptr, 10);
  }
  // A signed store or a hand-written text hints file: ProfileStore::load
  // sniffs which.
  if (const char* path = std::getenv("VERSA_PROFILE_LOAD")) {
    config.profile_load_path = path;
  }
  if (const char* path = std::getenv("VERSA_PROFILE_SAVE")) {
    config.profile_save_path = path;
  }
  if (const char* drift = std::getenv("VERSA_DRIFT")) {
    config.profile.drift.enabled = std::string(drift) != "0";
  }
  if (const char* threshold = std::getenv("VERSA_DRIFT_THRESHOLD")) {
    const double value = std::strtod(threshold, nullptr);
    if (value > 0.0) {
      config.profile.drift.threshold = value;
    } else {
      VERSA_LOG(kWarn) << "ignoring invalid VERSA_DRIFT_THRESHOLD="
                       << threshold;
    }
  }
  if (const char* trace = std::getenv("VERSA_SCHED_TRACE")) {
    config.sched_trace = std::string(trace) != "0";
  }
  if (const char* granularity = std::getenv("VERSA_GRANULARITY")) {
    if (!core::parse_granularity(granularity, config.granularity)) {
      VERSA_LOG(kWarn) << "ignoring invalid VERSA_GRANULARITY="
                       << granularity;
    }
  }
  if (const char* mode = std::getenv("VERSA_SANITIZE")) {
    if (!sanitize::parse_sanitize_mode(mode, config.sanitize.mode)) {
      VERSA_LOG(kWarn) << "ignoring invalid VERSA_SANITIZE=" << mode;
    }
  }
  return config;
}

}  // namespace versa
