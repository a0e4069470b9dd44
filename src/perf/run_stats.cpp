#include "perf/run_stats.h"

#include "common/check.h"

namespace versa {

void RunStatsCollector::on_complete(TaskTypeId type, VersionId version,
                                    Duration measured) {
  if (version >= stats_.size()) stats_.resize(version + 1);
  Value& value = stats_[version];
  VERSA_CHECK_MSG(value.count == 0 || value.type == type,
                  "version completed under two task types");
  value.type = type;
  ++value.count;
  value.total += measured;
  ++total_tasks_;
}

std::uint64_t RunStatsCollector::count(VersionId version) const {
  return version < stats_.size() ? stats_[version].count : 0;
}

Duration RunStatsCollector::total_time(VersionId version) const {
  return version < stats_.size() ? stats_[version].total : 0.0;
}

std::uint64_t RunStatsCollector::type_count(TaskTypeId type) const {
  std::uint64_t total = 0;
  for (const Value& value : stats_) {
    if (value.count > 0 && value.type == type) total += value.count;
  }
  return total;
}

double RunStatsCollector::percent(TaskTypeId type, VersionId version) const {
  const std::uint64_t all = type_count(type);
  if (all == 0) return 0.0;
  const std::uint64_t mine =
      version < stats_.size() && stats_[version].type == type
          ? stats_[version].count
          : 0;
  return 100.0 * static_cast<double>(mine) / static_cast<double>(all);
}

void RunStatsCollector::reset() {
  stats_.clear();
  total_tasks_ = 0;
}

double gflops(double flops, Duration elapsed) {
  VERSA_CHECK(elapsed > 0.0);
  return flops / elapsed / 1e9;
}

}  // namespace versa
