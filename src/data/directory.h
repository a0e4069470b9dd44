// Software cache-coherence directory across memory spaces.
//
// OmpSs semantics: shared data may be replicated in several memory spaces;
// the runtime keeps the copies coherent by tracking, per region, which
// spaces hold a valid copy (single-writer / multiple-reader). A task's
// copy_deps clauses are satisfied *before* it runs (acquire); writes
// invalidate remote copies; taskwait flushes dirty device data back to the
// host unless the noflush clause is used.
//
// The directory is a pure bookkeeping machine: it decides *which* copies
// must happen and accounts them (Input/Output/Device Tx, §V-A); executors
// decide *when* they happen (and, in simulation, how long they take).
//
// An acquire is linear in the task's clauses: one pass pins the working
// set, resolving each clause's region state once (a region named twice is
// pinned and sized once), and the copy and unpin passes reuse those
// states from member scratch storage, so no pass looks a region up again.
//
// Thread-safety: the directory is internally synchronized and every public
// method is callable WITHOUT the runtime lock (DESIGN.md §9). One mutex
// (class `data`, rank 13) guards all region state, so every query and
// every mutation sees one consistent directory state. On the sim backend
// that mutex is covered by the runtime lock (cover_lock_with): callers
// must then hold the runtime lock instead. On the thread
// backend an acquire is bookkeeping only (the data stays in host
// storage), so a single short critical section costs less than any
// finer-grained scheme would save (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "data/data_region.h"
#include "data/transfer_stats.h"
#include "machine/machine.h"
#include "task/access.h"
#include "util/annotated_sync.h"

namespace versa {

/// One required copy, produced by acquire()/flush().
struct TransferOp {
  RegionId region = 0;
  SpaceId from = kInvalidSpace;
  SpaceId to = kInvalidSpace;
  std::uint64_t bytes = 0;
  TransferCategory category = TransferCategory::kLocal;
};

using TransferList = std::vector<TransferOp>;

class DataDirectory {
 public:
  explicit DataDirectory(const Machine& machine);

  /// Register a managed region. `host_ptr` may be null (virtual region).
  /// The fresh region is valid in host memory only.
  RegionId register_region(std::string name, std::uint64_t size,
                           void* host_ptr = nullptr);

  /// Drop a region from management: every copy is released (dirty device
  /// data is discarded — flush first if it matters) and its id becomes
  /// invalid for future calls. Ids are never reused.
  void unregister_region(RegionId id);

  bool is_registered(RegionId id) const;

  /// Borrowed reference into mutex-guarded state: valid because region
  /// descriptors live in a deque and are never moved or erased (ids are
  /// never reused), and a descriptor never changes after registration.
  const RegionDesc& region(RegionId id) const;
  std::size_t region_count() const;
  std::size_t live_region_count() const;

  /// How resolve() sizes a data set: each distinct region counted once,
  /// by its full size (the profile key of a submitted task, paper §IV-B
  /// footnote 2) or by the length of its first clause (split children,
  /// so different tilings land in different profile groups).
  enum class SizeBy { kRegion, kAccessLength };

  /// Validate and complete a task's clauses under one lock: an open
  /// length (0) becomes "to the end of the region" (failing with
  /// `offset_error` when the offset is past the end), and a clause that
  /// ends past its region fails with `range_error`. Returns the data-set
  /// size, each region counted once (O(accesses): regions are deduped by
  /// a per-call stamp, not by rescanning the list).
  std::uint64_t resolve(AccessList& accesses, const char* offset_error,
                        const char* range_error,
                        SizeBy size_by = SizeBy::kRegion);

  /// Resolve `accesses` for a task body under one lock: writes one
  /// ResolvedArg per clause, in order, to `out` (room for
  /// accesses.size()).
  void describe(const AccessList& accesses, ResolvedArg* out) const;

  /// Make every region accessed by `accesses` coherent for execution in
  /// `space`: appends the copies required to `out`, updates validity
  /// (writes invalidate other spaces) and evicts LRU copies if the space
  /// would overflow; a region named by several clauses counts once
  /// toward the room it needs. Must be called in dependence order per
  /// task chain — the task graph orders conflicting acquires. Atomic as
  /// a whole to every query. When `args` is non-null the same critical
  /// section also describes the clauses into it (see describe()), so a
  /// task start takes the lock once.
  void acquire(const AccessList& accesses, SpaceId space, TransferList& out,
               ResolvedArg* args = nullptr);

  /// Bytes that would need copying into `space` to run `accesses` there.
  /// Pure query — the affinity scheduler's cost function.
  std::uint64_t bytes_missing(const AccessList& accesses, SpaceId space) const;

  /// Bytes of `accesses` already valid in `space` (locality score).
  std::uint64_t bytes_valid(const AccessList& accesses, SpaceId space) const;

  /// Estimated seconds to stage the missing bytes of `accesses` into
  /// `space` over the host->space link (the dominant path): zero when
  /// nothing is missing or no such link exists, else
  /// latency + missing/bandwidth. The locality-versioning scheduler's
  /// placement penalty — callable without any runtime involvement.
  Duration transfer_cost(const AccessList& accesses, SpaceId space) const;

  /// Copy every dirty region back to host (taskwait flush semantics).
  void flush_all(TransferList& out);

  /// Flush one region (taskwait on(...) semantics).
  void flush_region(RegionId id, TransferList& out);

  bool is_valid_in(RegionId id, SpaceId space) const;

  /// Space holding the only modified copy, or kInvalidSpace if the host
  /// copy is current.
  SpaceId dirty_space(RegionId id) const;

  std::uint64_t used_bytes(SpaceId space) const;

  /// Plain-value snapshot of the transfer accounting.
  TransferStats stats() const;

  /// Cover the directory mutex with lock class `outer`
  /// (versa::Mutex::cover_with): the sim runtime calls every method under
  /// its own lock. Call before the directory is shared with a thread.
  void cover_lock_with(const lock_order::LockClass& outer) {
    mutex_.cover_with(outer);
  }
  bool lock_covered() const { return mutex_.covered(); }

  /// Number of evictions performed due to capacity pressure.
  std::uint64_t eviction_count() const;

 private:
  struct RegionState {
    RegionDesc desc;
    std::uint64_t valid_mask = 1;  ///< bit per space; bit 0 = host
    SpaceId dirty = kInvalidSpace;
    std::uint64_t last_use = 0;
    std::uint64_t stamp = 0;  ///< last resolve() that counted the region
    bool pinned = false;   ///< set while part of an in-flight acquire
    bool removed = false;  ///< unregistered (tombstone; ids never reused)
  };

  const Machine& machine_;

  mutable versa::Mutex mutex_{lock_order::kLockRankData};
  /// Indexed by region id; tombstones stay so ids are never reused.
  std::deque<RegionState> regions_ VERSA_GUARDED_BY(mutex_);
  /// Per-space bytes of valid copies (indexed by SpaceId).
  std::vector<std::uint64_t> used_ VERSA_GUARDED_BY(mutex_);
  TransferStats stats_ VERSA_GUARDED_BY(mutex_);
  std::uint64_t tick_ VERSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t stamp_ VERSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ VERSA_GUARDED_BY(mutex_) = 0;
  std::size_t live_regions_ VERSA_GUARDED_BY(mutex_) = 0;
  /// acquire()'s per-clause region states, reused so a task start does no
  /// allocation once the longest access list has been seen. Deque
  /// elements never move, so the pointers stay valid for the call.
  std::vector<RegionState*> acquire_states_ VERSA_GUARDED_BY(mutex_);

  RegionState& state_at(RegionId id) VERSA_REQUIRES(mutex_);
  const RegionState& state_at(RegionId id) const VERSA_REQUIRES(mutex_);

  /// One clause resolved against its region's descriptor.
  static ResolvedArg describe_one(const Access& access, const RegionDesc& desc);

  /// Pick the source space for a copy into `to` (prefers host).
  SpaceId choose_source(const RegionState& rs, SpaceId to) const;

  void add_valid(RegionState& rs, SpaceId space) VERSA_REQUIRES(mutex_);
  void drop_valid(RegionState& rs, SpaceId space) VERSA_REQUIRES(mutex_);
  void emit_copy(RegionState& rs, SpaceId from, SpaceId to, TransferList& out)
      VERSA_REQUIRES(mutex_);

  /// Evict LRU unpinned copies from `space` until `needed` bytes fit.
  void make_room(SpaceId space, std::uint64_t needed, TransferList& out)
      VERSA_REQUIRES(mutex_);
};

}  // namespace versa
