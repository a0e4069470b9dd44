// Property tests for the scheduling core's incremental load accounting
// (src/sched/core/load_account.h): after ANY sequence of push / pop /
// complete / fail / mean-update / drift-reset operations, the per-worker
// queued charge must be bit-identical (in integer ticks) to an O(queue)
// rescan that prices every queued task at its current profile mean (or its
// frozen push-time charge when the mean is unknown). The busy-tracking
// policies are additionally driven end-to-end with the debug cross-check
// armed, so the comparison also runs inside estimated_busy() itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "machine/presets.h"
#include "sched/affinity_scheduler.h"
#include "sched/core/load_account.h"
#include "sched/dep_aware_scheduler.h"
#include "sched/locality_versioning_scheduler.h"
#include "sched/versioning_scheduler.h"

namespace versa {
namespace {

using core::LoadAccount;
using core::Ticks;
using core::to_seconds;
using core::to_ticks;

// --- direct LoadAccount semantics ----------------------------------------

TEST(LoadAccount, TickConversionRoundTrips) {
  for (Ticks t : {Ticks{0}, Ticks{1}, Ticks{999}, Ticks{5'000'000'000}}) {
    EXPECT_EQ(to_ticks(to_seconds(t)), t);
  }
}

TEST(LoadAccount, PushPopSettleMoveCharges) {
  LoadAccount account;
  account.reset(make_minotauro_node(2, 1));
  const PriceId key = 0;
  account.on_push(7, key, 0, 2e-3);
  EXPECT_EQ(account.queued_ticks(0), to_ticks(2e-3));
  EXPECT_EQ(account.running_ticks(0), 0);
  EXPECT_EQ(account.queued_count(0), 1u);
  account.on_pop(7, 0);
  EXPECT_EQ(account.queued_ticks(0), 0);
  EXPECT_EQ(account.running_ticks(0), to_ticks(2e-3));
  account.on_settle(0);
  EXPECT_EQ(account.busy_ticks(0), 0);
  EXPECT_EQ(account.tracked_tasks(), 0u);
}

TEST(LoadAccount, RepriceMovesQueuedButNotRunning) {
  LoadAccount account;
  account.reset(make_minotauro_node(2, 1));
  const PriceId key = 0;
  account.on_push(1, key, 0, 1e-3);
  account.on_push(2, key, 0, 1e-3);
  account.on_pop(1, 0);  // running slot frozen at 1 ms
  account.reprice(key, 5e-3);
  EXPECT_EQ(account.queued_ticks(0), to_ticks(5e-3));
  EXPECT_EQ(account.running_ticks(0), to_ticks(1e-3));
  // Forgetting the mean reverts the queued task to its push-time charge.
  account.reprice(key, std::nullopt);
  EXPECT_EQ(account.queued_ticks(0), to_ticks(1e-3));
  // A push under a known price charges the price, not the estimate.
  account.reprice(key, 3e-3);
  account.on_push(3, key, 0, 9e-3);
  EXPECT_EQ(account.queued_ticks(0), to_ticks(3e-3) * 2);
}

TEST(LoadAccount, StealMovesChargeBetweenWorkers) {
  LoadAccount account;
  account.reset(make_minotauro_node(2, 1));
  const PriceId key = 0;
  account.on_push(1, key, 0, 4e-3);
  account.on_steal(1, 0, 1);
  EXPECT_EQ(account.queued_ticks(0), 0);
  EXPECT_EQ(account.queued_ticks(1), to_ticks(4e-3));
  // A reprice after the steal patches the thief, not the victim.
  account.reprice(key, 6e-3);
  EXPECT_EQ(account.queued_ticks(0), 0);
  EXPECT_EQ(account.queued_ticks(1), to_ticks(6e-3));
  account.on_pop(1, 1);
  EXPECT_EQ(account.running_ticks(1), to_ticks(6e-3));
}

TEST(LoadAccount, IndexOrdersByBusyThenCountThenId) {
  LoadAccount account;
  account.reset(make_minotauro_node(3, 2));  // workers 0-2 smp, 3-4 cuda
  const PriceId key = 0;
  account.on_push(1, key, 1, 2e-3);
  account.on_push(2, key, 2, 1e-3);
  EXPECT_EQ(account.least_busy(DeviceKind::kSmp), 0u);
  account.on_push(3, key, 0, 1e-3);
  // Workers 0 and 2 tie on busy; equal queue counts break the tie by id.
  EXPECT_EQ(account.least_busy(DeviceKind::kSmp), 0u);
  account.on_push(4, key, 0, 0.0);  // same busy, longer queue -> 2 wins
  EXPECT_EQ(account.least_busy(DeviceKind::kSmp), 2u);
  std::vector<WorkerId> order;
  for (const LoadAccount::IndexKey& k :
       account.workers_by_busy(DeviceKind::kSmp)) {
    order.push_back(std::get<2>(k));
  }
  EXPECT_EQ(order, (std::vector<WorkerId>{2, 0, 1}));
  // GPUs live in their own index.
  EXPECT_EQ(account.least_busy(DeviceKind::kCuda), 3u);
}

TEST(LoadAccount, ManyQueuedTasksSurviveGrowthAndOutOfOrderPops) {
  // The per-task entries live in an open-addressed table: grow it well
  // past its first size, then pop in an order unrelated to push order so
  // erases shift probe runs around, and check every entry is still found
  // with its own charge.
  LoadAccount account;
  account.reset(make_minotauro_node(2, 1));
  const PriceId key = 0;
  constexpr TaskId kTasks = 1000;
  for (TaskId task = 0; task < kTasks; ++task) {
    account.on_push(task * 7919, key, task % 2,
                    1e-6 * static_cast<double>(task + 1));
  }
  EXPECT_EQ(account.tracked_tasks(), kTasks);
  Rng rng(7);
  std::vector<TaskId> order(kTasks);
  for (TaskId task = 0; task < kTasks; ++task) order[task] = task;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (TaskId task : order) {
    const Duration charge = account.on_pop(task * 7919, task % 2);
    EXPECT_EQ(to_ticks(charge), to_ticks(1e-6 * static_cast<double>(task + 1)));
  }
  EXPECT_EQ(account.tracked_tasks(), 0u);
  EXPECT_EQ(account.queued_ticks(0), 0);
  EXPECT_EQ(account.queued_ticks(1), 0);
}

// The finish-time index is sorted when read, not when changed. Drive
// random push / pop / settle / steal / reprice sequences and read the
// index only at random points, so a read may follow zero, one or many
// changes to either kind: every read must equal a from-scratch sort of
// (busy, queued count, id) over the kind's workers, and least_busy must
// be its front whichever of the two is read first.
TEST(LoadAccount, IndexSortedOnReadMatchesFromScratchSort) {
  const Machine machine = make_minotauro_node(8, 2);  // 0-7 smp, 8-9 cuda
  for (const std::uint64_t seed : {3u, 17u, 2026u}) {
    Rng rng(seed);
    LoadAccount account;
    account.reset(machine);
    std::vector<std::pair<TaskId, WorkerId>> queued;
    TaskId next = 1;
    auto random_key = [&] {
      const auto type = static_cast<PriceId>(rng.next_below(2));
      const auto version = static_cast<PriceId>(rng.next_below(2));
      return type * 2 + version;  // dense id of one (type, version) price
    };
    auto expected_index = [&](DeviceKind kind) {
      std::vector<LoadAccount::IndexKey> expected;
      for (const WorkerDesc& w : machine.workers()) {
        if (w.kind != kind) continue;
        expected.emplace_back(account.busy_ticks(w.id),
                              account.queued_count(w.id), w.id);
      }
      std::sort(expected.begin(), expected.end());
      return expected;
    };
    int reads = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.next_below(100);
      if (op < 40 || queued.empty()) {
        const auto w =
            static_cast<WorkerId>(rng.next_below(machine.worker_count()));
        account.on_push(next, random_key(), w, rng.uniform(0.0, 1e-2));
        queued.emplace_back(next++, w);
      } else if (op < 60) {
        const std::size_t i = rng.next_below(queued.size());
        const WorkerId w = queued[i].second;
        account.on_pop(queued[i].first, w);
        queued.erase(queued.begin() + static_cast<std::ptrdiff_t>(i));
        if (rng.next_below(2) == 0) account.on_settle(w);
      } else if (op < 70) {
        account.on_settle(
            static_cast<WorkerId>(rng.next_below(machine.worker_count())));
      } else if (op < 82) {
        auto& [task, victim] = queued[rng.next_below(queued.size())];
        const DeviceKind kind = machine.worker(victim).kind;
        const WorkerId base = kind == DeviceKind::kSmp ? 0 : 8;
        const WorkerId span = kind == DeviceKind::kSmp ? 8 : 2;
        const auto thief = static_cast<WorkerId>(base + rng.next_below(span));
        if (thief != victim) {
          account.on_steal(task, victim, thief);
          victim = thief;
        }
      } else {
        const PriceId key = random_key();
        if (rng.next_below(4) == 0) {
          account.reprice(key, std::nullopt);
        } else {
          account.reprice(key, rng.uniform(1e-6, 1e-2));
        }
      }
      if (rng.next_below(8) != 0) continue;  // most changes go unread
      ++reads;
      for (const DeviceKind kind : {DeviceKind::kSmp, DeviceKind::kCuda}) {
        const std::vector<LoadAccount::IndexKey> expected =
            expected_index(kind);
        WorkerId front = kInvalidWorker;
        if (rng.next_below(2) == 0) front = account.least_busy(kind);
        const LoadAccount::KindIndex& index = account.workers_by_busy(kind);
        ASSERT_EQ(std::vector<LoadAccount::IndexKey>(index.begin(),
                                                     index.end()),
                  expected)
            << "seed " << seed << " step " << step;
        if (front == kInvalidWorker) front = account.least_busy(kind);
        ASSERT_EQ(front, std::get<2>(expected.front()))
            << "seed " << seed << " step " << step;
      }
    }
    EXPECT_GT(reads, 300) << "seed " << seed;
  }
}

TEST(LoadAccountDeathTest, MisuseAborts) {
  const PriceId key = 0;
  auto fresh = [] {
    LoadAccount account;
    account.reset(make_minotauro_node(2, 1));
    return account;
  };
  EXPECT_DEATH(
      {
        LoadAccount account = fresh();
        account.on_push(1, key, 0, 1e-3);
        account.on_push(1, key, 1, 1e-3);
      },
      "task pushed twice into the load account");
  EXPECT_DEATH(
      {
        LoadAccount account = fresh();
        account.on_pop(1, 0);
      },
      "pop of an untracked task");
  EXPECT_DEATH(
      {
        LoadAccount account = fresh();
        account.on_push(1, key, 0, 1e-3);
        account.on_pop(1, 0);
        account.on_pop(1, 0);
      },
      "pop of an untracked task");
  EXPECT_DEATH(
      {
        LoadAccount account = fresh();
        account.on_push(1, key, 0, 1e-3);
        account.on_pop(1, 1);
      },
      "pop from the wrong worker");
  EXPECT_DEATH(
      {
        LoadAccount account = fresh();
        account.on_steal(1, 0, 1);
      },
      "steal of an untracked task");
  EXPECT_DEATH(
      {
        LoadAccount account = fresh();
        account.on_push(1, key, 0, 1e-3);
        account.on_steal(1, 1, 0);
      },
      "steal from the wrong victim");
}

// Randomized op-sequence check against an independent per-task reference:
// every queued task is priced at the key's latest reprice mean when one is
// known, else its push-time charge — summed per worker in exact ticks. A
// pop moves that price into the worker's running slot until a settle (or
// the next pop) replaces it. After every step each kind's finish-time
// index must list exactly its workers sorted by (busy, queued count, id),
// with least_busy at the front.
TEST(LoadAccount, RandomOpsMatchRescanReference) {
  Rng rng(20260805);
  const Machine machine = make_minotauro_node(3, 2);
  LoadAccount account;
  account.reset(machine);

  struct RefTask {
    PriceId key;
    WorkerId worker;
    Ticks frozen;
  };
  std::map<TaskId, RefTask> queued;
  std::map<PriceId, std::optional<Ticks>> prices;
  std::vector<Ticks> running(machine.worker_count(), 0);
  TaskId next_task = 1;

  // Dense ids of 3 types x 2 versions x 2 size groups.
  auto random_key = [&] {
    const auto type = static_cast<PriceId>(rng.next_below(3));
    const auto version = static_cast<PriceId>(rng.next_below(2));
    const auto group = static_cast<PriceId>(rng.next_below(2));
    return (type * 2 + version) * 2 + group;
  };
  auto price_of = [&](const RefTask& ref) {
    const std::optional<Ticks>& price = prices[ref.key];
    return price.has_value() ? *price : ref.frozen;
  };
  auto rescan = [&](WorkerId w) {
    Ticks sum = 0;
    for (const auto& [id, ref] : queued) {
      if (ref.worker == w) sum += price_of(ref);
    }
    return sum;
  };
  auto rescan_count = [&](WorkerId w) {
    std::uint32_t count = 0;
    for (const auto& [id, ref] : queued) count += ref.worker == w ? 1 : 0;
    return count;
  };

  auto push = [&](PriceId key, WorkerId w, Duration estimate) {
    const Duration charge = account.on_push(next_task, key, w, estimate);
    const std::optional<Ticks>& price = prices[key];
    queued[next_task] =
        RefTask{key, w, price.has_value() ? *price : to_ticks(estimate)};
    EXPECT_EQ(to_ticks(charge), queued[next_task].frozen);
    return next_task++;
  };
  auto pop = [&](TaskId task) {
    const RefTask ref = queued.at(task);
    const Duration charge = account.on_pop(task, ref.worker);
    running[ref.worker] = price_of(ref);
    EXPECT_EQ(to_ticks(charge), running[ref.worker]);
    queued.erase(task);
  };
  auto settle = [&](WorkerId w) {
    account.on_settle(w);
    running[w] = 0;
  };
  auto reprice = [&](PriceId key, std::optional<Duration> mean) {
    account.reprice(key, mean);
    prices[key] = mean.has_value()
                            ? std::optional<Ticks>(to_ticks(*mean))
                            : std::nullopt;
  };
  auto check = [&](int step) {
    for (const WorkerDesc& w : machine.workers()) {
      ASSERT_EQ(account.queued_ticks(w.id), rescan(w.id))
          << "diverged at step " << step << " on worker " << w.id;
      ASSERT_EQ(account.running_ticks(w.id), running[w.id])
          << "diverged at step " << step << " on worker " << w.id;
    }
    for (DeviceKind kind : {DeviceKind::kSmp, DeviceKind::kCuda}) {
      std::vector<LoadAccount::IndexKey> expected;
      for (const WorkerDesc& w : machine.workers()) {
        if (w.kind != kind) continue;
        expected.emplace_back(rescan(w.id) + running[w.id],
                              rescan_count(w.id), w.id);
      }
      std::sort(expected.begin(), expected.end());
      const LoadAccount::KindIndex& index = account.workers_by_busy(kind);
      ASSERT_EQ(std::vector<LoadAccount::IndexKey>(index.begin(),
                                                   index.end()),
                expected)
          << "index out of order at step " << step;
      ASSERT_EQ(account.least_busy(kind), std::get<2>(expected.front()))
          << "least_busy is not the index front at step " << step;
    }
  };

  // Directed prelude: a share empties after a forgotten mean and refills.
  // Two tasks of one key queue on worker 0 before any mean is known, so
  // their push-time charges differ; a mean prices both, forgetting it
  // reverts each to its push-time charge, and both pop, which empties the
  // share. Then the key refills the share on two workers, is re-priced
  // and forgotten again.
  const PriceId refill = 11;  // type 2, version 1, group 200
  int step = -1;
  const TaskId a = push(refill, 0, 1e-3);
  const TaskId b = push(refill, 0, 2e-3);
  reprice(refill, 4e-3);
  ASSERT_NO_FATAL_FAILURE(check(step));
  reprice(refill, std::nullopt);
  ASSERT_NO_FATAL_FAILURE(check(step));
  pop(a);
  settle(0);
  pop(b);
  ASSERT_NO_FATAL_FAILURE(check(step));
  settle(0);
  ASSERT_NO_FATAL_FAILURE(check(step));
  push(refill, 0, 5e-3);
  push(refill, 1, 6e-3);
  ASSERT_NO_FATAL_FAILURE(check(step));
  reprice(refill, 3e-3);
  ASSERT_NO_FATAL_FAILURE(check(step));
  reprice(refill, std::nullopt);
  ASSERT_NO_FATAL_FAILURE(check(step));

  for (step = 0; step < 5000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 45 || queued.empty()) {  // push
      const PriceId key = random_key();
      const WorkerId w =
          static_cast<WorkerId>(rng.next_below(machine.worker_count()));
      push(key, w, rng.uniform(0.0, 1e-2));
    } else if (op < 65) {  // pop, then usually settle (completion/failure)
      auto it = queued.begin();
      std::advance(it, static_cast<long>(rng.next_below(queued.size())));
      const WorkerId w = it->second.worker;
      pop(it->first);
      if (rng.next_below(4) != 0) settle(w);
    } else if (op < 80) {  // steal to a random same-kind worker
      auto it = queued.begin();
      std::advance(it, static_cast<long>(rng.next_below(queued.size())));
      const DeviceKind kind = machine.worker(it->second.worker).kind;
      std::vector<WorkerId> kin;
      for (const WorkerDesc& w : machine.workers()) {
        if (w.kind == kind && w.id != it->second.worker) kin.push_back(w.id);
      }
      if (!kin.empty()) {
        const WorkerId thief = kin[rng.next_below(kin.size())];
        account.on_steal(it->first, it->second.worker, thief);
        it->second.worker = thief;
      }
    } else {  // reprice (mean moved, or forgotten on a drift reset)
      const PriceId key = random_key();
      if (rng.next_below(5) == 0) {
        reprice(key, std::nullopt);
      } else {
        reprice(key, rng.uniform(1e-6, 1e-2));
      }
    }
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
}

// --- end-to-end policy check ----------------------------------------------

/// Minimal SchedulerContext for driving policies without a full runtime.
class AccountTestContext : public SchedulerContext {
 public:
  explicit AccountTestContext(Machine machine)
      : machine_(std::move(machine)), directory_(machine_) {
    const TaskTypeId type_a = registry_.declare_task("a");
    registry_.add_version(type_a, DeviceKind::kSmp, "smp", nullptr, nullptr);
    registry_.add_version(type_a, DeviceKind::kCuda, "gpu", nullptr, nullptr);
    const TaskTypeId type_b = registry_.declare_task("b");
    registry_.add_version(type_b, DeviceKind::kSmp, "smp", nullptr, nullptr);
    registry_.add_version(type_b, DeviceKind::kCuda, "gpu", nullptr, nullptr);
    types_ = {type_a, type_b};
  }

  const Machine& machine() const override { return machine_; }
  const VersionRegistry& registry() const override { return registry_; }
  DataDirectory& directory() override { return directory_; }
  TaskGraph& graph() override { return graph_; }
  Time now() const override { return now_; }
  void task_assigned(TaskId, WorkerId) override {}

  VersionRegistry registry_;
  Machine machine_;
  DataDirectory directory_;
  TaskGraph graph_;
  Time now_ = 0.0;
  std::vector<TaskTypeId> types_;
};

/// Drive `sched` through a random submit / pop / complete / fail / drift
/// sequence. The debug cross-check compares the account to the rescan
/// reference inside every estimated_busy call; this harness additionally
/// keeps its own expected running charge so the queued + running total is
/// asserted at the gtest level too.
void run_random_workload(VersioningScheduler& sched, std::uint64_t seed) {
  AccountTestContext ctx(make_minotauro_node(4, 2));
  sched.set_debug_cross_check(true);
  sched.attach(ctx);
  Rng rng(seed);

  const WorkerId workers = static_cast<WorkerId>(ctx.machine_.worker_count());
  std::vector<TaskId> running(workers, kInvalidTask);
  std::vector<Ticks> running_charge(workers, 0);

  auto charge_of = [&](const Task& task) {
    const auto mean = sched.profile().mean(task.type, task.chosen_version,
                                           task.data_set_size);
    return to_ticks(mean.value_or(task.scheduler_estimate));
  };
  auto expected_busy = [&](WorkerId w) {
    Ticks sum = running_charge[w];
    for (TaskId id : sched.queued_tasks(w)) {
      sum += charge_of(ctx.graph_.task(id));
    }
    return sum;
  };
  auto check_all = [&] {
    for (WorkerId w = 0; w < workers; ++w) {
      // estimated_busy runs the internal cross-check; the assert adds the
      // running component on top.
      ASSERT_EQ(to_ticks(sched.estimated_busy(w)), expected_busy(w));
    }
  };

  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 35) {  // submit a small ready wave
      const std::uint64_t count = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < count; ++i) {
        const TaskTypeId type = ctx.types_[rng.next_below(ctx.types_.size())];
        const std::uint64_t size = rng.next_below(2) == 0 ? 100 : 200;
        Task& task = ctx.graph_.create_task(type, {}, size, "");
        task.state = TaskState::kReady;
        sched.task_ready(task);
      }
    } else if (op < 65) {  // an idle worker asks for work
      const WorkerId w = static_cast<WorkerId>(rng.next_below(workers));
      if (running[w] == kInvalidTask) {
        const TaskId id = sched.pop_task(w);
        if (id != kInvalidTask) {
          Task& task = ctx.graph_.task(id);
          task.state = TaskState::kRunning;
          running[w] = id;
          running_charge[w] = charge_of(task);
        }
      }
    } else if (op < 85) {  // complete a running task (records a measurement)
      const WorkerId w = static_cast<WorkerId>(rng.next_below(workers));
      if (running[w] != kInvalidTask) {
        Task& task = ctx.graph_.task(running[w]);
        const Duration measured = rng.uniform(1e-4, 5e-3);
        ctx.now_ += measured;
        std::vector<TaskId> ready;
        ctx.graph_.mark_finished(task.id, ctx.now_, ready);
        sched.task_completed(task, w, measured);
        running[w] = kInvalidTask;
        running_charge[w] = 0;
      }
    } else if (op < 95) {  // transient failure: release and resubmit
      const WorkerId w = static_cast<WorkerId>(rng.next_below(workers));
      if (running[w] != kInvalidTask) {
        Task& task = ctx.graph_.task(running[w]);
        sched.task_failed(task, w);
        running[w] = kInvalidTask;
        running_charge[w] = 0;
        task.state = TaskState::kReady;
        sched.task_ready(task);
      }
    } else {  // drift relearn: forget one version's history for a group
      const TaskTypeId type = ctx.types_[rng.next_below(ctx.types_.size())];
      const std::vector<VersionId>& versions = ctx.registry_.versions(type);
      const VersionId v = versions[rng.next_below(versions.size())];
      const std::uint64_t size = rng.next_below(2) == 0 ? 100 : 200;
      sched.mutable_profile().reset_version(type, v,
                                            sched.profile().group_key(size));
    }
    check_all();
  }
}

TEST(LoadAccountPolicy, VersioningMatchesRescan) {
  VersioningScheduler sched;
  run_random_workload(sched, 1);
}

TEST(LoadAccountPolicy, VersioningLocalityMatchesRescan) {
  LocalityVersioningScheduler sched;
  run_random_workload(sched, 2);
}

TEST(LoadAccountPolicy, VersioningFastestMatchesRescan) {
  VersioningScheduler sched;
  sched.set_fastest_executor_only(true);
  run_random_workload(sched, 3);
}

/// Zero-estimate policies must stay at exactly zero busy through pushes,
/// steals, completions and failures.
template <typename Sched>
void run_zero_charge_workload(std::uint64_t seed) {
  Sched sched;
  AccountTestContext ctx(make_minotauro_node(4, 2));
  sched.attach(ctx);
  Rng rng(seed);
  const WorkerId workers = static_cast<WorkerId>(ctx.machine_.worker_count());
  std::vector<TaskId> running(workers, kInvalidTask);
  for (int step = 0; step < 1000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 40) {
      const TaskTypeId type = ctx.types_[rng.next_below(ctx.types_.size())];
      Task& task = ctx.graph_.create_task(type, {}, 100, "");
      task.state = TaskState::kReady;
      sched.task_ready(task);
    } else if (op < 75) {
      // Pops on empty queues exercise the same-kind steal path.
      const WorkerId w = static_cast<WorkerId>(rng.next_below(workers));
      if (running[w] == kInvalidTask) {
        const TaskId id = sched.pop_task(w);
        if (id != kInvalidTask) {
          ctx.graph_.task(id).state = TaskState::kRunning;
          running[w] = id;
        }
      }
    } else {
      const WorkerId w = static_cast<WorkerId>(rng.next_below(workers));
      if (running[w] != kInvalidTask) {
        Task& task = ctx.graph_.task(running[w]);
        ctx.now_ += 1e-3;
        std::vector<TaskId> ready;
        ctx.graph_.mark_finished(task.id, ctx.now_, ready);
        sched.task_completed(task, w, 1e-3);
        running[w] = kInvalidTask;
      }
    }
    for (WorkerId w = 0; w < workers; ++w) {
      ASSERT_EQ(sched.estimated_busy(w), 0.0);
    }
  }
}

TEST(LoadAccountPolicy, AffinityStaysAtZeroBusy) {
  run_zero_charge_workload<AffinityScheduler>(5);
}

TEST(LoadAccountPolicy, DepAwareStaysAtZeroBusy) {
  run_zero_charge_workload<DepAwareScheduler>(6);
}

}  // namespace
}  // namespace versa
