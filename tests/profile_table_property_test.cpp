// Property test for the cell-indexed ProfileTable: seeded random sequences
// of record (by cell and by (type, version, size)), prime, restore,
// reset_version and drift-inducing shifts are applied both to the table
// and to a from-scratch reference built on std::map — one map of (type,
// group key) groups, each a std::map of per-version stats, the layout the
// table had before cells. After every step every query must agree: mean,
// count, variance, reliable, fastest_version and nearest_group_mean
// (including its smaller-key tie-break), the drift events, the mean
// listener's notifications, entries() order and the dump() bytes. Each
// sequence registers a version after its type's cells exist.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "sched/profile_table.h"

namespace versa {
namespace {

/// The reference: the same per-entry accumulators (RunningMean,
/// CusumDetector) keyed through std::maps, with the grouping, drift,
/// reliability and dump rules written out again from the table's
/// documented semantics.
class MapProfile {
 public:
  MapProfile(const VersionRegistry& registry, ProfileConfig config)
      : registry_(registry), config_(config) {}

  std::uint64_t group_key(std::uint64_t size) const {
    if (config_.grouping == SizeGrouping::kExact) return size;
    if (size == 0) return 0;
    const double bucket = std::log(static_cast<double>(size)) /
                          std::log(config_.range_ratio);
    return static_cast<std::uint64_t>(std::llround(bucket)) + 1;
  }

  void record(TaskTypeId type, VersionId v, std::uint64_t size, Duration d) {
    const std::uint64_t key = group_key(size);
    Stats& stats = entry(type, key, v);
    if (stats.detector.add(d)) {
      drift_.push_back({type, key, v, stats.detector.reference(), d,
                        stats.mean.count()});
      stats.mean.reset();
    }
    stats.mean.add(d);
    if (config_.drift.enabled && !stats.detector.armed() &&
        stats.mean.count() >= config_.lambda) {
      stats.detector.arm(stats.mean.mean());
    }
    notified_.push_back(current(stats));
  }

  void prime(TaskTypeId type, VersionId v, std::uint64_t key, Duration mean,
             std::uint64_t count) {
    Stats& stats = entry(type, key, v);
    for (std::uint64_t i = 0; i < count; ++i) stats.mean.add(mean);
    if (config_.drift.enabled && count >= config_.lambda) {
      stats.detector.arm(stats.mean.mean());
    }
    notified_.push_back(current(stats));
  }

  void restore(TaskTypeId type, VersionId v, std::uint64_t key, Duration mean,
               std::uint64_t count, double m2) {
    Stats& stats = entry(type, key, v);
    stats.mean.restore(mean, count, m2);
    if (config_.drift.enabled && count >= config_.lambda) {
      stats.detector.arm(mean);
    } else {
      stats.detector.disarm();
    }
    notified_.push_back(current(stats));
  }

  void reset_version(TaskTypeId type, VersionId v, std::uint64_t key) {
    auto group = groups_.find({type, key});
    if (group == groups_.end()) return;
    auto it = group->second.find(v);
    if (it == group->second.end()) return;
    it->second.mean.reset();
    it->second.detector.disarm();
    notified_.push_back(std::nullopt);
  }

  const RunningMean* find(TaskTypeId type, VersionId v,
                          std::uint64_t size) const {
    auto group = groups_.find({type, group_key(size)});
    if (group == groups_.end()) return nullptr;
    auto it = group->second.find(v);
    return it == group->second.end() ? nullptr : &it->second.mean;
  }

  std::optional<Duration> mean(TaskTypeId type, VersionId v,
                               std::uint64_t size) const {
    const RunningMean* m = find(type, v, size);
    if (m == nullptr || m->empty()) return std::nullopt;
    return m->mean();
  }
  std::uint64_t count(TaskTypeId type, VersionId v, std::uint64_t size) const {
    const RunningMean* m = find(type, v, size);
    return m == nullptr ? 0 : m->count();
  }
  double variance(TaskTypeId type, VersionId v, std::uint64_t size) const {
    const RunningMean* m = find(type, v, size);
    return m == nullptr ? 0.0 : m->variance();
  }
  bool reliable(TaskTypeId type, std::uint64_t size) const {
    for (VersionId v : registry_.versions(type)) {
      if (count(type, v, size) < config_.lambda) return false;
    }
    return true;
  }
  std::optional<VersionId> fastest_version(TaskTypeId type,
                                           std::uint64_t size) const {
    std::optional<VersionId> best;
    Duration best_mean = 0.0;
    for (VersionId v : registry_.versions(type)) {
      const auto m = mean(type, v, size);
      if (m && (!best || *m < best_mean)) {
        best = v;
        best_mean = *m;
      }
    }
    return best;
  }
  std::optional<Duration> nearest_group_mean(TaskTypeId type, VersionId v,
                                             std::uint64_t key) const {
    std::optional<Duration> best;
    std::uint64_t best_distance = 0;
    std::uint64_t best_key = 0;
    for (const auto& [group, per_version] : groups_) {
      if (group.first != type) continue;
      auto it = per_version.find(v);
      if (it == per_version.end() || it->second.mean.empty()) continue;
      const std::uint64_t distance =
          group.second > key ? group.second - key : key - group.second;
      if (!best || distance < best_distance ||
          (distance == best_distance && group.second < best_key)) {
        best = it->second.mean.mean();
        best_distance = distance;
        best_key = group.second;
      }
    }
    return best;
  }

  std::vector<ProfileTable::Entry> entries() const {
    std::vector<ProfileTable::Entry> out;
    for (const auto& [group, per_version] : groups_) {
      for (const auto& [v, stats] : per_version) {
        out.push_back({group.first, group.second, v, stats.mean.mean(),
                       stats.mean.count(), stats.mean.m2()});
      }
    }
    return out;
  }

  std::string dump() const {
    std::ostringstream out;
    out << "TaskVersionSet | DataSetSize | <VersionId, ExecTime, #Exec>\n";
    TaskTypeId last_type = kInvalidTaskType;
    for (const auto& [group, per_version] : groups_) {
      const std::string type_name = group.first == last_type
                                        ? std::string()
                                        : registry_.task_name(group.first);
      last_type = group.first;
      bool first = true;
      for (const auto& [v, stats] : per_version) {
        out << (first ? type_name : std::string()) << (first ? " | " : "   ")
            << (first ? (config_.grouping == SizeGrouping::kExact
                             ? format_bytes(static_cast<double>(group.second))
                             : "group#" + std::to_string(group.second))
                      : std::string())
            << (first ? " | " : "     ") << "<" << registry_.version(v).name
            << ", " << format_duration(stats.mean.mean()) << ", "
            << stats.mean.count() << ">\n";
        first = false;
      }
    }
    return out.str();
  }

  std::size_t group_count() const { return groups_.size(); }
  const std::vector<ProfileTable::DriftEvent>& drift() const { return drift_; }
  const std::vector<std::optional<Duration>>& notified() const {
    return notified_;
  }

 private:
  struct Stats {
    RunningMean mean;
    CusumDetector detector;
  };
  Stats& entry(TaskTypeId type, std::uint64_t key, VersionId v) {
    auto& per_version = groups_[{type, key}];
    auto it = per_version.find(v);
    if (it == per_version.end()) {
      it = per_version
               .emplace(v, Stats{RunningMean(config_.mean_kind,
                                             config_.ema_alpha),
                                 CusumDetector(config_.drift)})
               .first;
    }
    return it->second;
  }
  static std::optional<Duration> current(const Stats& stats) {
    if (stats.mean.empty()) return std::nullopt;
    return stats.mean.mean();
  }

  const VersionRegistry& registry_;
  ProfileConfig config_;
  std::map<std::pair<TaskTypeId, std::uint64_t>, std::map<VersionId, Stats>>
      groups_;
  std::vector<ProfileTable::DriftEvent> drift_;
  std::vector<std::optional<Duration>> notified_;
};

bool same_entries(const std::vector<ProfileTable::Entry>& a,
                  const std::vector<ProfileTable::Entry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].group_key != b[i].group_key ||
        a[i].version != b[i].version || a[i].mean != b[i].mean ||
        a[i].count != b[i].count || a[i].m2 != b[i].m2) {
      return false;
    }
  }
  return true;
}

bool same_drift(const std::vector<ProfileTable::DriftEvent>& a,
                const std::vector<ProfileTable::DriftEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].group_key != b[i].group_key ||
        a[i].version != b[i].version || a[i].stale_mean != b[i].stale_mean ||
        a[i].observed != b[i].observed || a[i].at_count != b[i].at_count) {
      return false;
    }
  }
  return true;
}

void run_sequence(SizeGrouping grouping, std::uint64_t seed) {
  VersionRegistry registry;
  std::vector<TaskTypeId> types;
  for (const char* name : {"gemm", "potrf", "loop"}) {
    const TaskTypeId t = registry.declare_task(name);
    registry.add_version(t, DeviceKind::kSmp, std::string(name) + "_smp",
                         nullptr, nullptr);
    registry.add_version(t, DeviceKind::kCuda, std::string(name) + "_gpu",
                         nullptr, nullptr);
    types.push_back(t);
  }
  ProfileConfig config;
  config.lambda = 3;
  config.grouping = grouping;
  config.drift.enabled = true;
  ProfileTable table(registry, config);
  MapProfile ref(registry, config);
  std::vector<std::optional<Duration>> notified;
  PriceId last_price = 0;
  table.set_mean_listener([&](PriceId price, std::optional<Duration> mean) {
    notified.push_back(mean);
    last_price = price;
  });
  // Every (type, group, version) entry keeps one price id, and no two
  // entries share one.
  std::map<PriceId, std::tuple<TaskTypeId, std::uint64_t, VersionId>> owner;
  auto check_price = [&](TaskTypeId t, std::uint64_t size, VersionId v,
                         PriceId price) {
    const auto key = std::make_tuple(t, table.group_key(size), v);
    const auto [it, inserted] = owner.try_emplace(price, key);
    EXPECT_TRUE(it->second == key) << "price id " << price << " reused";
    EXPECT_EQ(table.price_id(table.resolve_cell(t, size), registry.version(v)),
              price);
  };

  // Sizes 1000 and 3000 are 2000 apart from 2000, so a nearest-group query
  // at 2000 (exact grouping) ties and must take the smaller key.
  const std::vector<std::uint64_t> sizes = {1000, 2000, 3000, 1u << 20,
                                            (1u << 20) + 40000, 1u << 22};
  Rng rng(seed);
  auto pick_type = [&] { return types[rng.next_below(types.size())]; };
  auto pick_version = [&](TaskTypeId t) {
    const std::vector<VersionId>& vs = registry.versions(t);
    return vs[rng.next_below(vs.size())];
  };
  auto pick_size = [&] { return sizes[rng.next_below(sizes.size())]; };
  // Per-(type, version) base durations; a drift step shifts one of them so
  // the detector alarms on the following records.
  std::map<VersionId, Duration> base;
  auto duration_of = [&](VersionId v) {
    auto [it, inserted] = base.try_emplace(v, rng.uniform(1e-3, 1e-2));
    return it->second * rng.uniform(0.97, 1.03);
  };
  bool late_version_added = false;

  for (int step = 0; step < 3000; ++step) {
    if (step == 1500) {
      // Every type has cells by now; the new version must get entries in
      // them and count towards reliability from here on.
      ASSERT_GT(table.group_count(), 0u);
      registry.add_version(types[0], DeviceKind::kCuda, "gemm_gpu_v2",
                           nullptr, nullptr);
      late_version_added = true;
    }
    const TaskTypeId t = pick_type();
    const VersionId v = pick_version(t);
    const std::uint64_t size = pick_size();
    const std::uint64_t op = rng.next_below(100);
    if (op < 35) {  // record by cell, as the scheduler does
      const Duration d = duration_of(v);
      table.record(table.resolve_cell(t, size), registry.version(v), d);
      ref.record(t, v, size, d);
    } else if (op < 60) {  // record by (type, version, size)
      const Duration d = duration_of(v);
      table.record(t, v, size, d);
      ref.record(t, v, size, d);
    } else if (op < 68) {
      const Duration mean = rng.uniform(1e-3, 1e-2);
      const std::uint64_t count = 1 + rng.next_below(5);
      table.prime(t, v, table.group_key(size), mean, count);
      ref.prime(t, v, ref.group_key(size), mean, count);
    } else if (op < 76) {
      const Duration mean = rng.uniform(1e-3, 1e-2);
      const std::uint64_t count = 1 + rng.next_below(6);
      const double m2 = rng.uniform(0.0, 1e-6);
      table.restore(t, v, table.group_key(size), mean, count, m2);
      ref.restore(t, v, ref.group_key(size), mean, count, m2);
    } else if (op < 84) {
      table.reset_version(t, v, table.group_key(size));
      ref.reset_version(t, v, ref.group_key(size));
    } else if (op < 88) {
      base[v] = rng.uniform(1e-3, 1e-2) * (rng.next_below(2) == 0 ? 0.3 : 3.0);
    } else {  // a cell the scheduler resolves before anything is recorded
      check_price(t, size, v,
                  table.price_id(table.resolve_cell(t, size),
                                 registry.version(v)));
    }
    if (op < 76) check_price(t, size, v, last_price);

    ASSERT_EQ(notified, ref.notified()) << "step " << step;
    ASSERT_TRUE(same_drift(table.drift_events(), ref.drift())) << "step "
                                                               << step;
    ASSERT_EQ(table.group_count(), ref.group_count()) << "step " << step;
    if (step % 7 != 0) continue;
    for (TaskTypeId qt : types) {
      for (std::uint64_t qs : sizes) {
        ASSERT_EQ(table.reliable(qt, qs), ref.reliable(qt, qs));
        ASSERT_EQ(table.fastest_version(qt, qs), ref.fastest_version(qt, qs));
        for (VersionId qv : registry.versions(qt)) {
          ASSERT_EQ(table.mean(qt, qv, qs), ref.mean(qt, qv, qs))
              << "step " << step;
          ASSERT_EQ(table.count(qt, qv, qs), ref.count(qt, qv, qs));
          ASSERT_EQ(table.variance(qt, qv, qs), ref.variance(qt, qv, qs));
          ASSERT_EQ(table.nearest_group_mean(qt, qv, table.group_key(qs)),
                    ref.nearest_group_mean(qt, qv, ref.group_key(qs)));
        }
      }
    }
    ASSERT_TRUE(same_entries(table.entries(), ref.entries())) << "step "
                                                              << step;
    ASSERT_EQ(table.dump(), ref.dump()) << "step " << step;
  }
  EXPECT_TRUE(late_version_added);
  EXPECT_GT(table.drift_events().size(), 0u) << "no drift alarm exercised";
  // The late version ran in some cell: its entries are listed.
  bool late_listed = false;
  for (const ProfileTable::Entry& e : table.entries()) {
    late_listed |= registry.version(e.version).name == "gemm_gpu_v2";
  }
  EXPECT_TRUE(late_listed);
}

TEST(ProfileTableProperty, ExactGroupingMatchesMapReference) {
  for (std::uint64_t seed : {1u, 7u, 2026u}) {
    SCOPED_TRACE(seed);
    run_sequence(SizeGrouping::kExact, seed);
  }
}

TEST(ProfileTableProperty, RangeGroupingMatchesMapReference) {
  for (std::uint64_t seed : {2u, 11u, 4242u}) {
    SCOPED_TRACE(seed);
    run_sequence(SizeGrouping::kRange, seed);
  }
}

TEST(ProfileTableProperty, NearestGroupTieTakesSmallerKey) {
  VersionRegistry registry;
  const TaskTypeId t = registry.declare_task("t");
  const VersionId v =
      registry.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileTable table(registry, ProfileConfig{});
  // Cells created larger key first, so cell order is not key order.
  table.record(t, v, 3000, 9.0);
  table.record(t, v, 1000, 1.0);
  EXPECT_EQ(table.nearest_group_mean(t, v, 2000), 1.0);
}

}  // namespace
}  // namespace versa
