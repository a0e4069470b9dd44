// Unit tests for the task system: access clauses, version registry
// (`implements` semantics), region/interval dependence analysis, and graph
// readiness propagation — including randomized property checks that the
// interval analyzer matches a brute-force byte-level oracle.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "task/access.h"
#include "task/dependency_analyzer.h"
#include "task/task_graph.h"
#include "task/task_store.h"
#include "task/version_registry.h"

namespace versa {
namespace {

TEST(Access, Helpers) {
  const Access a = Access::in(3);
  EXPECT_EQ(a.region, 3u);
  EXPECT_EQ(a.mode, AccessMode::kIn);
  EXPECT_TRUE(reads(AccessMode::kIn));
  EXPECT_FALSE(writes(AccessMode::kIn));
  EXPECT_TRUE(writes(AccessMode::kOut));
  EXPECT_FALSE(reads(AccessMode::kOut));
  EXPECT_TRUE(reads(AccessMode::kInOut));
  EXPECT_TRUE(writes(AccessMode::kInOut));
}

TEST(Access, RangeHelpers) {
  const Access a = Access::inout_range(2, 128, 64);
  EXPECT_EQ(a.offset, 128u);
  EXPECT_EQ(a.length, 64u);
  EXPECT_STREQ(to_string(AccessMode::kInOut), "inout");
}

TEST(VersionRegistry, FirstVersionIsMain) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("work");
  const VersionId main = reg.add_version(t, DeviceKind::kCuda, "gpu", nullptr,
                                         nullptr);
  reg.add_version(t, DeviceKind::kSmp, "cpu", nullptr, nullptr);
  EXPECT_EQ(reg.main_version(t), main);
  EXPECT_TRUE(reg.version(main).is_main);
  EXPECT_FALSE(reg.version(reg.versions(t)[1]).is_main);
}

TEST(VersionRegistry, VersionsForDeviceFilters) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("work");
  reg.add_version(t, DeviceKind::kCuda, "cublas", nullptr, nullptr);
  reg.add_version(t, DeviceKind::kCuda, "cuda", nullptr, nullptr);
  reg.add_version(t, DeviceKind::kSmp, "cblas", nullptr, nullptr);
  EXPECT_EQ(reg.versions_for_device(t, DeviceKind::kCuda).size(), 2u);
  EXPECT_EQ(reg.versions_for_device(t, DeviceKind::kSmp).size(), 1u);
  EXPECT_TRUE(reg.device_supported(t, DeviceKind::kSmp));
}

TEST(VersionRegistry, FindTaskByName) {
  VersionRegistry reg;
  const TaskTypeId t1 = reg.declare_task("alpha");
  const TaskTypeId t2 = reg.declare_task("beta");
  EXPECT_EQ(reg.find_task("alpha"), t1);
  EXPECT_EQ(reg.find_task("beta"), t2);
  EXPECT_EQ(reg.find_task("gamma"), kInvalidTaskType);
  EXPECT_EQ(reg.task_name(t2), "beta");
}

TEST(VersionRegistry, MultipleTypesKeepSeparateSets) {
  VersionRegistry reg;
  const TaskTypeId t1 = reg.declare_task("a");
  const TaskTypeId t2 = reg.declare_task("b");
  reg.add_version(t1, DeviceKind::kSmp, "a0", nullptr, nullptr);
  reg.add_version(t2, DeviceKind::kCuda, "b0", nullptr, nullptr);
  reg.add_version(t2, DeviceKind::kSmp, "b1", nullptr, nullptr);
  EXPECT_EQ(reg.versions(t1).size(), 1u);
  EXPECT_EQ(reg.versions(t2).size(), 2u);
  EXPECT_EQ(reg.version_count(), 3u);
}

// --- dependency analyzer -------------------------------------------------

AccessList whole(RegionId r, AccessMode mode, std::uint64_t size = 100) {
  return {Access{r, mode, 0, size}};
}

TEST(DependencyAnalyzer, ReadAfterWrite) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  analyzer.add_task(0, whole(1, AccessMode::kOut), preds);
  EXPECT_TRUE(preds.empty());
  analyzer.add_task(1, whole(1, AccessMode::kIn), preds);
  EXPECT_EQ(preds, (std::vector<TaskId>{0}));
}

TEST(DependencyAnalyzer, ConcurrentReadersDoNotDepend) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  analyzer.add_task(0, whole(1, AccessMode::kOut), preds);
  preds.clear();
  analyzer.add_task(1, whole(1, AccessMode::kIn), preds);
  preds.clear();
  analyzer.add_task(2, whole(1, AccessMode::kIn), preds);
  EXPECT_EQ(preds, (std::vector<TaskId>{0}));  // only the writer
}

TEST(DependencyAnalyzer, WriteAfterReadDependsOnAllReaders) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  analyzer.add_task(0, whole(1, AccessMode::kOut), preds);
  preds.clear();
  analyzer.add_task(1, whole(1, AccessMode::kIn), preds);
  preds.clear();
  analyzer.add_task(2, whole(1, AccessMode::kIn), preds);
  preds.clear();
  analyzer.add_task(3, whole(1, AccessMode::kOut), preds);
  // WAR on both readers plus the (transitively redundant but harmless)
  // WAW on the original writer.
  EXPECT_EQ(preds, (std::vector<TaskId>{0, 1, 2}));
}

TEST(DependencyAnalyzer, WriteAfterWrite) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  analyzer.add_task(0, whole(1, AccessMode::kOut), preds);
  preds.clear();
  analyzer.add_task(1, whole(1, AccessMode::kOut), preds);
  EXPECT_EQ(preds, (std::vector<TaskId>{0}));
}

TEST(DependencyAnalyzer, InoutChainsSerialize) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  for (TaskId t = 0; t < 5; ++t) {
    preds.clear();
    analyzer.add_task(t, whole(1, AccessMode::kInOut), preds);
    if (t == 0) {
      EXPECT_TRUE(preds.empty());
    } else {
      EXPECT_EQ(preds, (std::vector<TaskId>{t - 1}));
    }
  }
}

TEST(DependencyAnalyzer, DistinctRegionsAreIndependent) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  analyzer.add_task(0, whole(1, AccessMode::kOut), preds);
  preds.clear();
  analyzer.add_task(1, whole(2, AccessMode::kOut), preds);
  EXPECT_TRUE(preds.empty());
}

TEST(DependencyAnalyzer, DisjointRangesAreIndependent) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  analyzer.add_task(0, {Access{1, AccessMode::kOut, 0, 50}}, preds);
  preds.clear();
  analyzer.add_task(1, {Access{1, AccessMode::kOut, 50, 50}}, preds);
  EXPECT_TRUE(preds.empty());
  preds.clear();
  // A read spanning both depends on both writers.
  analyzer.add_task(2, {Access{1, AccessMode::kIn, 25, 50}}, preds);
  EXPECT_EQ(preds, (std::vector<TaskId>{0, 1}));
}

TEST(DependencyAnalyzer, PartialOverlapSplitsIntervals) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  analyzer.add_task(0, {Access{1, AccessMode::kOut, 0, 100}}, preds);
  preds.clear();
  analyzer.add_task(1, {Access{1, AccessMode::kOut, 40, 20}}, preds);
  EXPECT_EQ(preds, (std::vector<TaskId>{0}));
  preds.clear();
  // Reading [0,40) still sees task 0 as the writer.
  analyzer.add_task(2, {Access{1, AccessMode::kIn, 0, 40}}, preds);
  EXPECT_EQ(preds, (std::vector<TaskId>{0}));
  preds.clear();
  // Reading [40,60) sees task 1.
  analyzer.add_task(3, {Access{1, AccessMode::kIn, 40, 20}}, preds);
  EXPECT_EQ(preds, (std::vector<TaskId>{1}));
}

TEST(DependencyAnalyzer, DuplicatePredecessorsAreDeduped) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  // Task 0 writes two regions; task 1 reads both -> one dependence.
  analyzer.add_task(
      0, {Access{1, AccessMode::kOut, 0, 10}, Access{2, AccessMode::kOut, 0, 10}},
      preds);
  preds.clear();
  analyzer.add_task(
      1, {Access{1, AccessMode::kIn, 0, 10}, Access{2, AccessMode::kIn, 0, 10}},
      preds);
  EXPECT_EQ(preds, (std::vector<TaskId>{0}));
}

TEST(DependencyAnalyzer, ClearRegionForgetsHistory) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  analyzer.add_task(0, whole(1, AccessMode::kOut), preds);
  analyzer.clear_region(1);
  preds.clear();
  analyzer.add_task(1, whole(1, AccessMode::kIn), preds);
  EXPECT_TRUE(preds.empty());
}

TEST(DependencyAnalyzer, IntervalCountStaysBounded) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  // Whole-region writes repeatedly collapse to one interval per region.
  for (TaskId t = 0; t < 100; ++t) {
    preds.clear();
    analyzer.add_task(t, whole(t % 4, AccessMode::kInOut), preds);
  }
  EXPECT_LE(analyzer.interval_count(), 4u);
}

// Property test: the interval analyzer must agree with a brute-force
// byte-granularity oracle over random access patterns.
class DependencyOracle {
 public:
  explicit DependencyOracle(std::uint64_t region_size)
      : writer_(region_size, kInvalidTask), readers_(region_size) {}

  void add(TaskId task, const Access& access, std::set<TaskId>& preds) {
    for (std::uint64_t b = access.offset; b < access.offset + access.length;
         ++b) {
      if (reads(access.mode) && writer_[b] != kInvalidTask) {
        preds.insert(writer_[b]);
      }
      if (writes(access.mode)) {
        if (writer_[b] != kInvalidTask) preds.insert(writer_[b]);
        for (TaskId r : readers_[b]) preds.insert(r);
        writer_[b] = task;
        readers_[b].clear();
      } else {
        readers_[b].insert(task);
      }
    }
    preds.erase(task);
  }

 private:
  std::vector<TaskId> writer_;
  std::vector<std::set<TaskId>> readers_;
};

class AnalyzerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalyzerPropertyTest, MatchesByteLevelOracle) {
  constexpr std::uint64_t kRegionSize = 64;
  Rng rng(GetParam());
  DependencyAnalyzer analyzer;
  DependencyOracle oracle(kRegionSize);

  for (TaskId t = 0; t < 200; ++t) {
    const std::uint64_t offset = rng.next_below(kRegionSize);
    const std::uint64_t length = 1 + rng.next_below(kRegionSize - offset);
    const AccessMode mode =
        static_cast<AccessMode>(rng.next_below(3));
    const Access access{7, mode, offset, length};

    std::vector<TaskId> got;
    analyzer.add_task(t, {access}, got);
    std::set<TaskId> expected;
    oracle.add(t, access, expected);

    const std::set<TaskId> got_set(got.begin(), got.end());
    ASSERT_EQ(got_set, expected) << "task " << t << " mode "
                                 << to_string(mode) << " [" << offset << ","
                                 << offset + length << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, AnalyzerPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- task graph ----------------------------------------------------------

TEST(TaskGraph, ReadinessPropagation) {
  TaskGraph graph;
  Task& a = graph.create_task(0, {}, 0, "a");
  Task& b = graph.create_task(0, {}, 0, "b");
  EXPECT_EQ(graph.add_dependencies(a, {}), 0u);
  EXPECT_EQ(graph.add_dependencies(b, {a.id}), 1u);

  a.state = TaskState::kReady;
  a.state = TaskState::kRunning;
  std::vector<TaskId> ready;
  graph.mark_finished(a.id, 1.0, ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{b.id}));
  EXPECT_EQ(graph.unfinished(), 1u);
  EXPECT_FALSE(graph.all_finished());
}

TEST(TaskGraph, FinishedPredecessorAddsNoEdge) {
  TaskGraph graph;
  Task& a = graph.create_task(0, {}, 0, "a");
  graph.add_dependencies(a, {});
  a.state = TaskState::kRunning;
  std::vector<TaskId> ready;
  graph.mark_finished(a.id, 1.0, ready);

  Task& b = graph.create_task(0, {}, 0, "b");
  EXPECT_EQ(graph.add_dependencies(b, {a.id}), 0u);
}

TEST(TaskGraph, DiamondReleasesOnlyWhenAllPredsDone) {
  TaskGraph graph;
  Task& a = graph.create_task(0, {}, 0, "a");
  Task& b = graph.create_task(0, {}, 0, "b");
  Task& c = graph.create_task(0, {}, 0, "c");
  Task& d = graph.create_task(0, {}, 0, "d");
  graph.add_dependencies(a, {});
  graph.add_dependencies(b, {a.id});
  graph.add_dependencies(c, {a.id});
  graph.add_dependencies(d, {b.id, c.id});

  std::vector<TaskId> ready;
  a.state = TaskState::kRunning;
  graph.mark_finished(a.id, 1.0, ready);
  EXPECT_EQ(ready.size(), 2u);

  ready.clear();
  b.state = TaskState::kRunning;
  graph.mark_finished(b.id, 2.0, ready);
  EXPECT_TRUE(ready.empty());  // d still waits on c

  ready.clear();
  c.state = TaskState::kRunning;
  graph.mark_finished(c.id, 3.0, ready);
  EXPECT_EQ(ready, (std::vector<TaskId>{d.id}));
  EXPECT_EQ(graph.edge_count(), 4u);
}

TEST(TaskGraph, ResetDropsEverything) {
  TaskGraph graph;
  graph.create_task(0, {}, 0, "a");
  graph.reset();
  EXPECT_EQ(graph.size(), 0u);
  EXPECT_TRUE(graph.all_finished());
}

TEST(TaskGraph, SuccessorsReleaseInEdgeCreationOrder) {
  // Edges are appended at the tail of the predecessor's list, so a
  // completion releases successors in the order their edges were made,
  // which is not the order of their ids here.
  TaskGraph graph;
  Task& root = graph.create_task(0, {}, 0, "root");
  std::vector<TaskId> kids;
  for (int i = 0; i < 5; ++i) {
    kids.push_back(graph.create_task(0, {}, 0, "kid").id);
  }
  graph.add_dependencies(root, {});
  const std::vector<TaskId> order = {kids[3], kids[0], kids[4], kids[1],
                                     kids[2]};
  for (TaskId id : order) graph.add_dependencies(graph.task(id), {root.id});
  std::vector<TaskId> listed;
  for (TaskId succ : graph.successors(root.id)) listed.push_back(succ);
  EXPECT_EQ(listed, order);
  EXPECT_TRUE(graph.successors(kids[0]).empty());

  root.state = TaskState::kRunning;
  std::vector<TaskId> ready;
  graph.mark_finished(root.id, 1.0, ready);
  EXPECT_EQ(ready, order);
}

TEST(TaskStore, AddressesStayStableAcrossChunkGrowth) {
  TaskStore store;
  const std::size_t n = 3 * TaskStore::kChunkTasks + 5;
  std::vector<const Task*> addresses;
  for (std::size_t i = 0; i < n; ++i) {
    Task& task = store.emplace_back();
    task.id = i;
    addresses.push_back(&task);
  }
  ASSERT_EQ(store.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(&store[i], addresses[i]) << i;
    EXPECT_EQ(store[i].id, i);
  }
}

TEST(TaskStore, IterationFollowsIdOrder) {
  TaskStore store;
  const std::size_t n = 2 * TaskStore::kChunkTasks + 1;
  for (std::size_t i = 0; i < n; ++i) store.emplace_back().id = i;
  TaskId expected = 0;
  for (const Task& task : store) EXPECT_EQ(task.id, expected++);
  EXPECT_EQ(expected, n);
}

TEST(TaskStore, ResetThenReuse) {
  TaskStore store;
  for (std::size_t i = 0; i < TaskStore::kChunkTasks + 3; ++i) {
    Task& task = store.emplace_back();
    task.label = "a label long enough to leave the small-string buffer";
    task.accesses.push_back(Access::in(static_cast<RegionId>(i)));
  }
  store.reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.begin() == store.end());
  // A reused slot is a freshly constructed task.
  Task& task = store.emplace_back();
  EXPECT_EQ(task.id, kInvalidTask);
  EXPECT_TRUE(task.accesses.empty());
  EXPECT_TRUE(task.label.empty());
  EXPECT_EQ(task.first_successor, kNoEdge);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(&store[0], &task);
}

TEST(Task, DataSetSizeFieldDefaults) {
  TaskGraph graph;
  Task& t = graph.create_task(2, {Access::in(1)}, 4096, "t");
  EXPECT_EQ(t.type, 2u);
  EXPECT_EQ(t.data_set_size, 4096u);
  EXPECT_EQ(t.state, TaskState::kCreated);
  EXPECT_EQ(t.chosen_version, kInvalidVersion);
  EXPECT_STREQ(to_string(t.state), "created");
}

}  // namespace
}  // namespace versa
