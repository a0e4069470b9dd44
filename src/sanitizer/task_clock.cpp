#include "sanitizer/task_clock.h"

#include <algorithm>

namespace versa::sanitize {

TaskId ClockTable::resolve(TaskId id) const {
  // Alias chains are depth 1 by construction (a fuse host is never itself
  // absorbed — it registers with the analyzer), but loop defensively.
  for (std::size_t hops = 0; hops < 4; ++hops) {
    const auto it = aliases_.find(id);
    if (it == aliases_.end()) return id;
    id = it->second;
  }
  return id;
}

void ClockTable::add(TaskId task, const std::vector<TaskId>& preds,
                     TaskId hb_parent) {
  Entry entry;

  // The clock starts as the elementwise max over all predecessor clocks,
  // with each predecessor's own (chain, pos) folded in.
  std::uint32_t best_chain = 0;
  std::uint32_t best_pos = 0;
  bool extends = false;
  auto absorb = [&](TaskId pred) {
    if (pred == kInvalidTask || pred == task) return;
    const auto it = entries_.find(resolve(pred));
    if (it == entries_.end()) return;
    const Entry& pe = it->second;
    if (entry.knows.size() < pe.knows.size()) {
      entry.knows.resize(pe.knows.size(), 0);
    }
    for (std::size_t c = 0; c < pe.knows.size(); ++c) {
      entry.knows[c] = std::max(entry.knows[c], pe.knows[c]);
    }
    if (entry.knows.size() <= pe.chain) entry.knows.resize(pe.chain + 1, 0);
    entry.knows[pe.chain] = std::max(entry.knows[pe.chain], pe.pos + 1);
    // Chain rule: extend a predecessor that is still its chain's tail.
    if (chain_tails_[pe.chain] == resolve(pred) &&
        (!extends || pe.pos + 1 > best_pos)) {
      extends = true;
      best_chain = pe.chain;
      best_pos = pe.pos + 1;
    }
  };
  for (const TaskId pred : preds) absorb(pred);
  absorb(hb_parent);

  if (extends) {
    entry.chain = best_chain;
    entry.pos = best_pos;
  } else {
    entry.chain = static_cast<std::uint32_t>(chain_tails_.size());
    entry.pos = 0;
    chain_tails_.push_back(kInvalidTask);
  }
  chain_tails_[entry.chain] = task;
  if (entry.knows.size() <= entry.chain) entry.knows.resize(entry.chain + 1, 0);
  entry.knows[entry.chain] = std::max(entry.knows[entry.chain], entry.pos + 1);
  entries_[task] = std::move(entry);
}

void ClockTable::alias(TaskId member, TaskId host) {
  if (member != host) aliases_[member] = host;
}

bool ClockTable::hb(const Entry& a, const Entry& b) const {
  return a.chain < b.knows.size() && b.knows[a.chain] >= a.pos + 1;
}

bool ClockTable::ordered(TaskId a, TaskId b) const {
  const TaskId ra = resolve(a);
  const TaskId rb = resolve(b);
  if (ra == rb) return true;
  const auto ia = entries_.find(ra);
  const auto ib = entries_.find(rb);
  if (ia == entries_.end() || ib == entries_.end()) return false;
  return hb(ia->second, ib->second) || hb(ib->second, ia->second);
}

}  // namespace versa::sanitize
