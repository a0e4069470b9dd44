// Happens-before clocks over the task graph (DESIGN.md §12).
//
// The sanitizer needs `ordered(a, b)` — is there a dependence path between
// two tasks? — for every pair the shadow map finds touching the same
// bytes. Full vector clocks over tasks would cost O(tasks) per task; this
// table uses the standard chain-decomposition compression instead: every
// task is appended to a *chain* (it extends the chain of one predecessor
// that is still that chain's tail, or starts a new chain), and its clock
// stores, per chain, the highest position it is ordered after. Chains
// number at most the graph's width (the largest antichain), so clocks are
// O(width) and a happens-before query is one array lookup:
//
//   hb(a, b)  ⟺  clock(b).knows[chain(a)] covers pos(a)
//
// Edges come from the dependence analyzer (RAW/WAR/WAW predecessors,
// including the byte-exact edges of split children) plus one lineage edge
// per nested submission (parent → child; the symmetric ordered() check
// also covers the child-completes-before-parent's-post-taskwait-reads
// direction — see §12 on why parent/child pairs are never reported).
// Fuse hosts register with the window's combined accesses; absorbed
// members alias to their host so lineage queries resolve somewhere real.
//
// Thread-safety: none of its own. The owning AccessSanitizer guards it
// with its one mutex.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace versa::sanitize {

class ClockTable {
 public:
  /// Register `task` with happens-before edges from every task in `preds`
  /// plus `hb_parent` (pass kInvalidTask for master-thread submissions).
  /// Predecessors must already be registered; unknown ids are skipped.
  void add(TaskId task, const std::vector<TaskId>& preds, TaskId hb_parent);

  /// Record that `member` was absorbed into `host` by a fuse window:
  /// queries against `member` resolve to `host`'s clock.
  void alias(TaskId member, TaskId host);

  /// True iff a dependence path orders the pair (either direction).
  /// Unregistered ids are reported unordered — the sanitizer only queries
  /// tasks it registered, so an unknown id is itself a bug to surface.
  bool ordered(TaskId a, TaskId b) const;

  /// Chains allocated so far (the clocks' width; tests).
  std::size_t chain_count() const { return chain_tails_.size(); }

 private:
  struct Entry {
    std::uint32_t chain = 0;
    std::uint32_t pos = 0;
    /// knows[c] = 1 + highest position in chain c this task is ordered
    /// after (0 = none). Sized lazily; missing tail entries mean 0.
    std::vector<std::uint32_t> knows;
  };

  TaskId resolve(TaskId id) const;
  bool hb(const Entry& a, const Entry& b) const;

  std::unordered_map<TaskId, Entry> entries_;
  std::unordered_map<TaskId, TaskId> aliases_;
  std::vector<TaskId> chain_tails_;
};

}  // namespace versa::sanitize
