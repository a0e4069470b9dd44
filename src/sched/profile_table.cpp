#include "sched/profile_table.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace versa {

ProfileTable::ProfileTable(const VersionRegistry& registry,
                           ProfileConfig config)
    : registry_(registry), config_(config) {
  VERSA_CHECK(config.lambda >= 1);
  VERSA_CHECK(config.range_ratio > 1.0);
}

std::uint64_t ProfileTable::group_key(std::uint64_t data_set_size) const {
  if (config_.grouping == SizeGrouping::kExact) return data_set_size;
  if (data_set_size == 0) return 0;
  // Bucket by log ratio: sizes whose log_{ratio} value rounds to the same
  // integer share a group.
  const double bucket =
      std::log(static_cast<double>(data_set_size)) / std::log(config_.range_ratio);
  return static_cast<std::uint64_t>(std::llround(bucket)) + 1;
}

CellId ProfileTable::cell_at(TaskTypeId type, std::uint64_t group_key) {
  ++cell_lookups_;
  const auto [it, inserted] = cell_index_.try_emplace(
      {type, group_key}, static_cast<CellId>(cells_.size()));
  if (inserted) cells_.push_back(Cell{type, group_key, {}});
  return it->second;
}

CellId ProfileTable::find_cell(TaskTypeId type,
                               std::uint64_t group_key) const {
  ++cell_lookups_;
  const auto it = cell_index_.find({type, group_key});
  return it == cell_index_.end() ? kNoCell : it->second;
}

CellId ProfileTable::resolve_cell(TaskTypeId type,
                                  std::uint64_t data_set_size) {
  return cell_at(type, group_key(data_set_size));
}

ProfileTable::VersionStats& ProfileTable::entry(CellId cell,
                                                const TaskVersion& version,
                                                bool list) {
  Cell& c = cells_[cell];
  VERSA_CHECK_MSG(version.type == c.type, "version of another task type");
  while (c.versions.size() <= version.ordinal) {
    c.versions.emplace_back(config_, next_price_++);
  }
  VersionStats& stats = c.versions[version.ordinal];
  stats.listed |= list;
  return stats;
}

PriceId ProfileTable::price_id(CellId cell, const TaskVersion& version) {
  return entry(cell, version, false).price;
}

void ProfileTable::record(TaskTypeId type, VersionId version,
                          std::uint64_t data_set_size, Duration measured) {
  record(resolve_cell(type, data_set_size), registry_.version(version),
         measured);
}

void ProfileTable::record(CellId cell, const TaskVersion& version,
                          Duration measured) {
  VERSA_CHECK(measured >= 0.0);
  VersionStats& stats = entry(cell, version, true);
  if (stats.detector.add(measured)) {
    // Sustained shift away from the reference mean: the history is stale.
    // Forget it and fall back into the learning phase for this group; the
    // alarm observation becomes the first sample of the relearn.
    drift_events_.push_back(DriftEvent{cells_[cell].type,
                                       cells_[cell].group_key, version.id,
                                       stats.detector.reference(), measured,
                                       stats.mean.count()});
    stats.mean.reset();
  }
  stats.mean.add(measured);
  if (config_.drift.enabled && !stats.detector.armed() &&
      stats.mean.count() >= config_.lambda) {
    stats.detector.arm(stats.mean.mean());
  }
  notify_mean(stats);
}

void ProfileTable::set_mean_listener(MeanListener listener) {
  mean_listener_ = std::move(listener);
}

void ProfileTable::notify_mean(const VersionStats& stats) const {
  if (!mean_listener_) return;
  std::optional<Duration> current;
  if (!stats.mean.empty()) current = stats.mean.mean();
  mean_listener_(stats.price, current);
}

std::optional<Duration> ProfileTable::nearest_group_mean(
    TaskTypeId type, VersionId version, std::uint64_t group_key) const {
  const TaskVersion& v = registry_.version(version);
  if (v.type != type) return std::nullopt;
  std::optional<Duration> best;
  std::uint64_t best_distance = 0;
  std::uint64_t best_key = 0;
  for (const Cell& cell : cells_) {
    if (cell.type != type || v.ordinal >= cell.versions.size()) continue;
    const VersionStats& stats = cell.versions[v.ordinal];
    if (stats.mean.empty()) continue;
    const std::uint64_t distance = cell.group_key > group_key
                                       ? cell.group_key - group_key
                                       : group_key - cell.group_key;
    if (!best || distance < best_distance ||
        (distance == best_distance && cell.group_key < best_key)) {
      best = stats.mean.mean();
      best_distance = distance;
      best_key = cell.group_key;
    }
  }
  return best;
}

const ProfileTable::VersionStats* ProfileTable::find(
    TaskTypeId type, VersionId version, std::uint64_t data_set_size) const {
  const TaskVersion& v = registry_.version(version);
  if (v.type != type) return nullptr;
  const CellId cell = find_cell(type, group_key(data_set_size));
  return cell == kNoCell ? nullptr : find(cell, v);
}

std::optional<Duration> ProfileTable::mean(TaskTypeId type, VersionId version,
                                           std::uint64_t data_set_size) const {
  const VersionStats* stats = find(type, version, data_set_size);
  if (stats == nullptr || stats->mean.empty()) return std::nullopt;
  return stats->mean.mean();
}

std::uint64_t ProfileTable::count(TaskTypeId type, VersionId version,
                                  std::uint64_t data_set_size) const {
  const VersionStats* stats = find(type, version, data_set_size);
  return stats == nullptr ? 0 : stats->mean.count();
}

double ProfileTable::variance(TaskTypeId type, VersionId version,
                              std::uint64_t data_set_size) const {
  const VersionStats* stats = find(type, version, data_set_size);
  return stats == nullptr ? 0.0 : stats->mean.variance();
}

bool ProfileTable::reliable(TaskTypeId type,
                            std::uint64_t data_set_size) const {
  const CellId cell = find_cell(type, group_key(data_set_size));
  for (VersionId v : registry_.versions(type)) {
    if (cell == kNoCell || count(cell, registry_.version(v)) < config_.lambda) {
      return false;
    }
  }
  return true;
}

std::optional<VersionId> ProfileTable::fastest_version(
    TaskTypeId type, std::uint64_t data_set_size) const {
  const CellId cell = find_cell(type, group_key(data_set_size));
  std::optional<VersionId> best;
  Duration best_mean = 0.0;
  if (cell == kNoCell) return best;
  for (VersionId v : registry_.versions(type)) {
    const auto m = mean(cell, registry_.version(v));
    if (!m) continue;
    if (!best || *m < best_mean) {
      best = v;
      best_mean = *m;
    }
  }
  return best;
}

void ProfileTable::prime(TaskTypeId type, VersionId version,
                         std::uint64_t group_key, Duration mean,
                         std::uint64_t count) {
  VERSA_CHECK(count >= 1);
  VersionStats& stats =
      entry(cell_at(type, group_key), registry_.version(version), true);
  // Seed by replaying `count` observations of the given mean; for the
  // arithmetic policy this reproduces (mean, count) exactly.
  for (std::uint64_t i = 0; i < count; ++i) {
    stats.mean.add(mean);
  }
  if (config_.drift.enabled && count >= config_.lambda) {
    stats.detector.arm(stats.mean.mean());
  }
  notify_mean(stats);
}

void ProfileTable::restore(TaskTypeId type, VersionId version,
                           std::uint64_t group_key, Duration mean,
                           std::uint64_t count, double m2) {
  VERSA_CHECK(count >= 1);
  VERSA_CHECK(mean >= 0.0);
  VersionStats& stats =
      entry(cell_at(type, group_key), registry_.version(version), true);
  stats.mean.restore(mean, count, m2);
  if (config_.drift.enabled && count >= config_.lambda) {
    stats.detector.arm(mean);
  } else {
    stats.detector.disarm();
  }
  notify_mean(stats);
}

void ProfileTable::reset_version(TaskTypeId type, VersionId version,
                                 std::uint64_t group_key) {
  const TaskVersion& v = registry_.version(version);
  const CellId cell = find_cell(type, group_key);
  if (cell == kNoCell || v.type != type) return;
  Cell& c = cells_[cell];
  if (v.ordinal >= c.versions.size() || !c.versions[v.ordinal].listed) return;
  VersionStats& stats = c.versions[v.ordinal];
  stats.mean.reset();
  stats.detector.disarm();
  notify_mean(stats);
}

bool ProfileTable::Cell::listed() const {
  return std::any_of(versions.begin(), versions.end(),
                     [](const VersionStats& stats) { return stats.listed; });
}

std::size_t ProfileTable::group_count() const {
  return static_cast<std::size_t>(std::count_if(
      cells_.begin(), cells_.end(), [](const Cell& c) { return c.listed(); }));
}

std::vector<CellId> ProfileTable::sorted_cells() const {
  std::vector<CellId> out;
  for (CellId id = 0; id < cells_.size(); ++id) {
    if (cells_[id].listed()) out.push_back(id);
  }
  std::sort(out.begin(), out.end(), [this](CellId a, CellId b) {
    return std::pair(cells_[a].type, cells_[a].group_key) <
           std::pair(cells_[b].type, cells_[b].group_key);
  });
  return out;
}

std::string ProfileTable::dump() const {
  std::ostringstream out;
  out << "TaskVersionSet | DataSetSize | <VersionId, ExecTime, #Exec>\n";
  TaskTypeId last_type = kInvalidTaskType;
  for (CellId id : sorted_cells()) {
    const Cell& cell = cells_[id];
    const std::string type_name =
        (cell.type == last_type) ? std::string()
                                 : registry_.task_name(cell.type);
    last_type = cell.type;
    bool first_line = true;
    const std::vector<VersionId>& versions = registry_.versions(cell.type);
    for (std::size_t i = 0; i < cell.versions.size(); ++i) {
      const VersionStats& stats = cell.versions[i];
      if (!stats.listed) continue;
      out << (first_line ? type_name : std::string())
          << (first_line ? " | " : "   ")
          << (first_line
                  ? (config_.grouping == SizeGrouping::kExact
                         ? format_bytes(static_cast<double>(cell.group_key))
                         : "group#" + std::to_string(cell.group_key))
                  : std::string())
          << (first_line ? " | " : "     ") << "<"
          << registry_.version(versions[i]).name << ", "
          << format_duration(stats.mean.mean()) << ", " << stats.mean.count()
          << ">\n";
      first_line = false;
    }
  }
  return out.str();
}

std::vector<ProfileTable::Entry> ProfileTable::entries() const {
  std::vector<Entry> out;
  for (CellId id : sorted_cells()) {
    const Cell& cell = cells_[id];
    const std::vector<VersionId>& versions = registry_.versions(cell.type);
    for (std::size_t i = 0; i < cell.versions.size(); ++i) {
      const VersionStats& stats = cell.versions[i];
      if (!stats.listed) continue;
      out.push_back(Entry{cell.type, cell.group_key, versions[i],
                          stats.mean.mean(), stats.mean.count(),
                          stats.mean.m2()});
    }
  }
  return out;
}

}  // namespace versa
