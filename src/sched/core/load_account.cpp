#include "sched/core/load_account.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace versa::core {

Ticks to_ticks(Duration seconds) {
  VERSA_CHECK(seconds >= 0.0);
  return static_cast<Ticks>(std::llround(seconds / kSecondsPerTick));
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
    index_[static_cast<std::size_t>(w.kind)].push_back(index_key(w.id));
  }
  dirty_.fill(true);
}

LoadAccount::IndexKey LoadAccount::index_key(WorkerId worker) const {
  return {queued_[worker] + running_[worker], counts_[worker], worker};
}

Ticks LoadAccount::effective(const TaskEntry& entry,
                             const Bucket& bucket) const {
  // on_push charges the bucket price whenever one is known, so a known
  // price is always the entry's current charge; when the price is unknown
  // the entry keeps (or reverts to) its push-time charge.
  return bucket.price.value_or(entry.charge);
}

std::size_t LoadAccount::EntryTable::home(TaskId task) const {
  // Fibonacci hashing: task ids are dense and sequential, the multiply
  // spreads them over the high bits, which the shift keeps.
  const int bits = std::countr_zero(slots_.size());
  return static_cast<std::size_t>((task * 0x9e3779b97f4a7c15ull) >>
                                  (64 - bits));
}

void LoadAccount::EntryTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.task != kInvalidTask) insert(slot.task, slot.entry);
  }
}

std::size_t LoadAccount::EntryTable::probe(TaskId task) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(task);
  while (slots_[i].task != task && slots_[i].task != kInvalidTask) {
    i = (i + 1) & mask;
  }
  return i;
}

bool LoadAccount::EntryTable::insert(TaskId task, const TaskEntry& entry) {
  VERSA_CHECK(task != kInvalidTask);
  if ((size_ + 1) * 2 > slots_.size()) grow();
  Slot& slot = slots_[probe(task)];
  if (slot.task == task) return false;
  slot.task = task;
  slot.entry = entry;
  ++size_;
  return true;
}

LoadAccount::TaskEntry* LoadAccount::EntryTable::find(TaskId task) {
  if (slots_.empty()) return nullptr;
  Slot& slot = slots_[probe(task)];
  return slot.task == task ? &slot.entry : nullptr;
}

bool LoadAccount::EntryTable::take(TaskId task, TaskEntry& out) {
  if (slots_.empty()) return false;
  std::size_t hole = probe(task);
  if (slots_[hole].task != task) return false;
  out = slots_[hole].entry;
  // Backward-shift erase: pull each later member of the probe run into
  // the hole unless its home lies cyclically in (hole, next].
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; slots_[next].task != kInvalidTask;
       next = (next + 1) & mask) {
    const std::size_t want = home(slots_[next].task);
    const bool stays = hole <= next ? (hole < want && want <= next)
                                    : (hole < want || want <= next);
    if (stays) continue;
    slots_[hole] = slots_[next];
    hole = next;
  }
  slots_[hole].task = kInvalidTask;
  --size_;
  return true;
}

void LoadAccount::EntryTable::clear() {
  for (Slot& slot : slots_) slot.task = kInvalidTask;
  size_ = 0;
}

Duration LoadAccount::on_push(TaskId task, PriceId price, WorkerId worker,
                              Duration estimate) {
  VERSA_CHECK(worker < queued_.size());
  Bucket& bucket = bucket_of(price);
  const Ticks charge =
      bucket.price.has_value() ? *bucket.price : to_ticks(estimate);
  VERSA_CHECK_MSG(entries_.insert(task, TaskEntry{price, worker, charge}),
                  "task pushed twice into the load account");
  ++bucket.queued;
  WorkerShare& share = bucket.shares[worker];
  ++share.count;
  share.charged += charge;
  share.frozen += charge;
  queued_[worker] += charge;
  ++counts_[worker];
  touch(worker);
  return to_seconds(charge);
}

Duration LoadAccount::on_pop(TaskId task, WorkerId worker) {
  TaskEntry entry;
  VERSA_CHECK_MSG(entries_.take(task, entry), "pop of an untracked task");
  VERSA_CHECK_MSG(entry.worker == worker, "pop from the wrong worker");
  Bucket& bucket = bucket_of(entry.price);
  const Ticks charge = effective(entry, bucket);
  --bucket.queued;
  WorkerShare& share = bucket.shares[worker];
  VERSA_CHECK(share.count > 0);
  --share.count;
  share.charged -= charge;
  share.frozen -= entry.charge;
  if (share.count == 0) share = {};
  queued_[worker] -= charge;
  --counts_[worker];
  // One running slot per worker, overwritten: nested-taskwait inline
  // execution pops while the parent still runs, and the historical
  // accounting kept only the latest estimate.
  running_[worker] = charge;
  touch(worker);
  return to_seconds(charge);
}

void LoadAccount::on_settle(WorkerId worker) {
  VERSA_CHECK(worker < running_.size());
  running_[worker] = 0;
  touch(worker);
}

void LoadAccount::on_steal(TaskId task, WorkerId victim, WorkerId thief) {
  TaskEntry* found = entries_.find(task);
  VERSA_CHECK_MSG(found != nullptr, "steal of an untracked task");
  TaskEntry& entry = *found;
  VERSA_CHECK_MSG(entry.worker == victim, "steal from the wrong victim");
  VERSA_CHECK(thief < queued_.size());
  Bucket& bucket = bucket_of(entry.price);
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
  queued_[victim] -= charge;
  --counts_[victim];
  queued_[thief] += charge;
  ++counts_[thief];
  touch(victim);
  touch(thief);
}

void LoadAccount::reprice(PriceId price, std::optional<Duration> mean) {
  Bucket& bucket = bucket_of(price);
  bucket.price = mean.has_value() ? std::optional<Ticks>(to_ticks(*mean))
                                  : std::nullopt;
  if (bucket.queued == 0) return;  // no queued charge to patch
  for (WorkerId worker = 0; worker < bucket.shares.size(); ++worker) {
    WorkerShare& share = bucket.shares[worker];
    if (share.count == 0) continue;
    const Ticks target = bucket.price.has_value()
                             ? static_cast<Ticks>(share.count) * *bucket.price
                             : share.frozen;
    if (target == share.charged) continue;
    const Ticks delta = target - share.charged;
    share.charged = target;
    queued_[worker] += delta;
    touch(worker);
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
  const auto k = static_cast<std::size_t>(kind);
  KindIndex& index = index_[k];
  if (dirty_[k]) {
    // The entries still name the kind's workers; refresh their keys and
    // sort. Keys are unique (the worker id breaks every tie), so the
    // order is the one a from-scratch sort gives. A kind has few workers
    // and only some moved since the last read, so the sort is short.
    for (IndexKey& key : index) key = index_key(std::get<2>(key));
    std::sort(index.begin(), index.end());
    dirty_[k] = false;
  }
  return index;
}

WorkerId LoadAccount::least_busy(DeviceKind kind) const {
  const KindIndex& index = workers_by_busy(kind);
  if (index.empty()) return kInvalidWorker;
  return std::get<2>(*index.begin());
}

}  // namespace versa::core
