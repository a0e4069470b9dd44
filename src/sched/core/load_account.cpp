#include "sched/core/load_account.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace versa::core {

Ticks to_ticks(Duration seconds) {
  VERSA_CHECK(seconds >= 0.0);
  return static_cast<Ticks>(std::llround(seconds / kSecondsPerTick));
}

Duration to_seconds(Ticks ticks) {
  return static_cast<Duration>(ticks) * kSecondsPerTick;
}

void LoadAccount::reset(const Machine& machine) {
  const std::size_t n = machine.worker_count();
  queued_.assign(n, 0);
  running_.assign(n, 0);
  counts_.assign(n, 0);
  kinds_.assign(n, DeviceKind::kSmp);
  for (KindIndex& index : index_) index.clear();
  buckets_.clear();
  entries_.clear();
  for (const WorkerDesc& w : machine.workers()) {
    kinds_[w.id] = w.kind;
    index_of(w.id).push_back(index_key(w.id));
  }
  for (KindIndex& index : index_) std::sort(index.begin(), index.end());
}

LoadAccount::IndexKey LoadAccount::index_key(WorkerId worker) const {
  return {queued_[worker] + running_[worker], counts_[worker], worker};
}

LoadAccount::KindIndex& LoadAccount::index_of(WorkerId worker) {
  return index_[static_cast<std::size_t>(kinds_[worker])];
}

template <typename Fn>
void LoadAccount::mutate(WorkerId worker, Fn&& fn) {
  KindIndex& index = index_of(worker);
  auto at = std::lower_bound(index.begin(), index.end(), index_key(worker));
  VERSA_CHECK(at != index.end() && std::get<2>(*at) == worker);
  fn();
  *at = index_key(worker);
  // Only this entry changed, so the rest of the index is still sorted:
  // swap it towards the front or the back until its neighbours agree.
  // Keys are unique (the worker id breaks every tie).
  while (at != index.begin() && *at < *(at - 1)) {
    std::iter_swap(at, at - 1);
    --at;
  }
  while (at + 1 != index.end() && *(at + 1) < *at) {
    std::iter_swap(at, at + 1);
    ++at;
  }
}

LoadAccount::Bucket& LoadAccount::bucket_of(const PriceKey& key) {
  const auto [it, inserted] = buckets_.try_emplace(key);
  if (inserted) it->second.shares.resize(queued_.size());
  return it->second;
}

Ticks LoadAccount::effective(const TaskEntry& entry,
                             const Bucket& bucket) const {
  // on_push charges the bucket price whenever one is known, so a known
  // price is always the entry's current charge; when the price is unknown
  // the entry keeps (or reverts to) its push-time charge.
  return bucket.price.value_or(entry.charge);
}

Duration LoadAccount::on_push(TaskId task, const PriceKey& key,
                              WorkerId worker, Duration estimate) {
  VERSA_CHECK(worker < queued_.size());
  Bucket& bucket = bucket_of(key);
  const Ticks charge =
      bucket.price.has_value() ? *bucket.price : to_ticks(estimate);
  const auto [it, inserted] =
      entries_.try_emplace(task, TaskEntry{key, worker, charge});
  VERSA_CHECK_MSG(inserted, "task pushed twice into the load account");
  WorkerShare& share = bucket.shares[worker];
  ++share.count;
  share.charged += charge;
  share.frozen += charge;
  mutate(worker, [&] {
    queued_[worker] += charge;
    ++counts_[worker];
  });
  return to_seconds(charge);
}

Duration LoadAccount::on_pop(TaskId task, WorkerId worker) {
  const auto it = entries_.find(task);
  VERSA_CHECK_MSG(it != entries_.end(), "pop of an untracked task");
  const TaskEntry entry = it->second;
  VERSA_CHECK_MSG(entry.worker == worker, "pop from the wrong worker");
  entries_.erase(it);
  Bucket& bucket = bucket_of(entry.key);
  const Ticks charge = effective(entry, bucket);
  WorkerShare& share = bucket.shares[worker];
  VERSA_CHECK(share.count > 0);
  --share.count;
  share.charged -= charge;
  share.frozen -= entry.charge;
  if (share.count == 0) share = {};
  mutate(worker, [&] {
    queued_[worker] -= charge;
    --counts_[worker];
    // One running slot per worker, overwritten: nested-taskwait inline
    // execution pops while the parent still runs, and the historical
    // accounting kept only the latest estimate.
    running_[worker] = charge;
  });
  return to_seconds(charge);
}

void LoadAccount::on_settle(WorkerId worker) {
  VERSA_CHECK(worker < running_.size());
  mutate(worker, [&] { running_[worker] = 0; });
}

void LoadAccount::on_steal(TaskId task, WorkerId victim, WorkerId thief) {
  const auto it = entries_.find(task);
  VERSA_CHECK_MSG(it != entries_.end(), "steal of an untracked task");
  TaskEntry& entry = it->second;
  VERSA_CHECK_MSG(entry.worker == victim, "steal from the wrong victim");
  VERSA_CHECK(thief < queued_.size());
  Bucket& bucket = bucket_of(entry.key);
  const Ticks charge = effective(entry, bucket);
  WorkerShare& from = bucket.shares[victim];
  VERSA_CHECK(from.count > 0);
  --from.count;
  from.charged -= charge;
  from.frozen -= entry.charge;
  if (from.count == 0) from = {};
  WorkerShare& to = bucket.shares[thief];
  ++to.count;
  to.charged += charge;
  to.frozen += entry.charge;
  entry.worker = thief;
  mutate(victim, [&] {
    queued_[victim] -= charge;
    --counts_[victim];
  });
  mutate(thief, [&] {
    queued_[thief] += charge;
    ++counts_[thief];
  });
}

void LoadAccount::reprice(const PriceKey& key, std::optional<Duration> mean) {
  Bucket& bucket = bucket_of(key);
  bucket.price = mean.has_value() ? std::optional<Ticks>(to_ticks(*mean))
                                  : std::nullopt;
  for (WorkerId worker = 0; worker < bucket.shares.size(); ++worker) {
    WorkerShare& share = bucket.shares[worker];
    if (share.count == 0) continue;
    const Ticks target = bucket.price.has_value()
                             ? static_cast<Ticks>(share.count) * *bucket.price
                             : share.frozen;
    if (target == share.charged) continue;
    const Ticks delta = target - share.charged;
    share.charged = target;
    mutate(worker, [&] { queued_[worker] += delta; });
  }
}

Duration LoadAccount::busy(WorkerId worker) const {
  return to_seconds(busy_ticks(worker));
}

Ticks LoadAccount::busy_ticks(WorkerId worker) const {
  VERSA_CHECK(worker < queued_.size());
  return queued_[worker] + running_[worker];
}

Ticks LoadAccount::queued_ticks(WorkerId worker) const {
  VERSA_CHECK(worker < queued_.size());
  return queued_[worker];
}

Ticks LoadAccount::running_ticks(WorkerId worker) const {
  VERSA_CHECK(worker < running_.size());
  return running_[worker];
}

std::uint32_t LoadAccount::queued_count(WorkerId worker) const {
  VERSA_CHECK(worker < counts_.size());
  return counts_[worker];
}

const LoadAccount::KindIndex& LoadAccount::workers_by_busy(
    DeviceKind kind) const {
  return index_[static_cast<std::size_t>(kind)];
}

WorkerId LoadAccount::least_busy(DeviceKind kind) const {
  const KindIndex& index = workers_by_busy(kind);
  if (index.empty()) return kInvalidWorker;
  return std::get<2>(*index.begin());
}

}  // namespace versa::core
