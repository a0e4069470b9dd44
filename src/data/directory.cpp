#include "data/directory.h"

#include "common/check.h"
#include "common/log.h"

namespace versa {
namespace {

constexpr std::uint64_t bit(SpaceId space) { return std::uint64_t{1} << space; }

}  // namespace

DataDirectory::DataDirectory(const Machine& machine)
    : machine_(machine), used_(machine.space_count(), 0) {
  VERSA_CHECK_MSG(machine.space_count() <= 64,
                  "validity masks support up to 64 memory spaces");
}

RegionId DataDirectory::register_region(std::string name, std::uint64_t size,
                                        void* host_ptr) {
  VERSA_CHECK_MSG(size > 0, "zero-sized region");
  versa::LockGuard lock(mutex_);
  const RegionId id = static_cast<RegionId>(regions_.size());
  RegionState rs;
  rs.desc.id = id;
  rs.desc.name = std::move(name);
  rs.desc.size = size;
  rs.desc.host_ptr = host_ptr;
  rs.valid_mask = bit(kHostSpace);
  regions_.push_back(std::move(rs));
  used_[kHostSpace] += size;
  ++live_regions_;
  return id;
}

void DataDirectory::unregister_region(RegionId id) {
  versa::LockGuard lock(mutex_);
  RegionState& rs = state_at(id);
  VERSA_CHECK_MSG(!rs.pinned, "cannot unregister a region mid-acquire");
  if (rs.dirty != kInvalidSpace) {
    VERSA_LOG(kWarn) << "unregistering region '" << rs.desc.name
                     << "' with unflushed device data";
  }
  for (SpaceId s = 0; s < machine_.space_count(); ++s) {
    drop_valid(rs, s);
  }
  rs.dirty = kInvalidSpace;
  rs.removed = true;
  VERSA_CHECK(live_regions_ > 0);
  --live_regions_;
}

bool DataDirectory::is_registered(RegionId id) const {
  versa::LockGuard lock(mutex_);
  return id < regions_.size() && !regions_[id].removed;
}

const RegionDesc& DataDirectory::region(RegionId id) const {
  versa::LockGuard lock(mutex_);
  return state_at(id).desc;
}

std::size_t DataDirectory::region_count() const {
  versa::LockGuard lock(mutex_);
  return regions_.size();
}

std::size_t DataDirectory::live_region_count() const {
  versa::LockGuard lock(mutex_);
  return live_regions_;
}

DataDirectory::RegionState& DataDirectory::state_at(RegionId id) {
  VERSA_CHECK(id < regions_.size());
  RegionState& rs = regions_[id];
  VERSA_CHECK_MSG(!rs.removed, "region was unregistered");
  return rs;
}

const DataDirectory::RegionState& DataDirectory::state_at(RegionId id) const {
  VERSA_CHECK(id < regions_.size());
  const RegionState& rs = regions_[id];
  VERSA_CHECK_MSG(!rs.removed, "region was unregistered");
  return rs;
}

SpaceId DataDirectory::choose_source(const RegionState& rs,
                                     [[maybe_unused]] SpaceId to) const {
  VERSA_DCHECK((rs.valid_mask & bit(to)) == 0);
  // Prefer the host copy when one exists: host->device links are dedicated
  // per device, so host sourcing spreads load. Otherwise take the first
  // valid device copy (device->device transfer, the paper's Device Tx).
  if (rs.valid_mask & bit(kHostSpace)) return kHostSpace;
  for (SpaceId s = 0; s < machine_.space_count(); ++s) {
    if (rs.valid_mask & bit(s)) return s;
  }
  VERSA_CHECK_MSG(false, "region has no valid copy anywhere");
  return kInvalidSpace;
}

void DataDirectory::add_valid(RegionState& rs, SpaceId space) {
  if ((rs.valid_mask & bit(space)) == 0) {
    rs.valid_mask |= bit(space);
    used_[space] += rs.desc.size;
  }
}

void DataDirectory::drop_valid(RegionState& rs, SpaceId space) {
  if (rs.valid_mask & bit(space)) {
    rs.valid_mask &= ~bit(space);
    VERSA_DCHECK(used_[space] >= rs.desc.size);
    used_[space] -= rs.desc.size;
  }
}

void DataDirectory::emit_copy(RegionState& rs, SpaceId from, SpaceId to,
                              TransferList& out) {
  const TransferCategory category = classify_transfer(from, to);
  out.push_back(TransferOp{rs.desc.id, from, to, rs.desc.size, category});
  stats_.record(category, rs.desc.size);
}

void DataDirectory::make_room(SpaceId space, std::uint64_t needed,
                              TransferList& out) {
  const std::uint64_t capacity = machine_.space(space).capacity;
  if (capacity == 0) return;  // unlimited
  while (used_[space] + needed > capacity) {
    // Find the least recently used unpinned region valid in this space;
    // ties on last_use go to the lowest id. A region whose only valid copy
    // lives here is evictable only if it is dirty here (it is written back
    // below); dropping any other last copy would lose the data.
    RegionState* victim = nullptr;
    for (RegionState& rs : regions_) {
      if (rs.removed || rs.pinned) continue;
      if ((rs.valid_mask & bit(space)) == 0) continue;
      if (rs.valid_mask == bit(space) && rs.dirty != space) continue;
      if (victim == nullptr || rs.last_use < victim->last_use) victim = &rs;
    }
    if (victim == nullptr) {
      VERSA_LOG(kWarn) << "memory space " << machine_.space(space).name
                       << " over-committed; cannot evict";
      return;
    }
    if (victim->dirty == space) {
      // Write back before dropping the only modified copy.
      emit_copy(*victim, space, kHostSpace, out);
      add_valid(*victim, kHostSpace);
      victim->dirty = kInvalidSpace;
    }
    drop_valid(*victim, space);
    ++evictions_;
  }
}

std::uint64_t DataDirectory::resolve(AccessList& accesses,
                                     const char* offset_error,
                                     const char* range_error, SizeBy size_by) {
  versa::LockGuard lock(mutex_);
  const std::uint64_t stamp = ++stamp_;
  std::uint64_t data_set_size = 0;
  for (Access& access : accesses) {
    RegionState& rs = state_at(access.region);
    const std::uint64_t size = rs.desc.size;
    if (access.length == 0) {
      VERSA_CHECK_MSG(access.offset < size, offset_error);
      access.length = size - access.offset;
    }
    VERSA_CHECK_MSG(access.offset + access.length <= size, range_error);
    if (rs.stamp == stamp) continue;  // region already counted
    rs.stamp = stamp;
    data_set_size += size_by == SizeBy::kRegion ? size : access.length;
  }
  return data_set_size;
}

ResolvedArg DataDirectory::describe_one(const Access& access,
                                        const RegionDesc& desc) {
  void* ptr = desc.host_ptr == nullptr
                  ? nullptr
                  : static_cast<char*>(desc.host_ptr) + access.offset;
  const std::uint64_t size =
      access.length != 0 ? access.length : desc.size - access.offset;
  return ResolvedArg{ptr, size, access.region, access.offset};
}

void DataDirectory::describe(const AccessList& accesses,
                             ResolvedArg* out) const {
  versa::LockGuard lock(mutex_);
  for (const Access& access : accesses) {
    *out++ = describe_one(access, state_at(access.region).desc);
  }
}

void DataDirectory::acquire(const AccessList& accesses, SpaceId space,
                            TransferList& out, ResolvedArg* args) {
  VERSA_CHECK(space < machine_.space_count());
  versa::LockGuard lock(mutex_);
  // Pin the working set so evictions never victimize data this very task
  // is about to use. Each clause's region is looked up (and checked) once,
  // here; a region named by several clauses is pinned and counted once.
  std::vector<RegionState*>& states = acquire_states_;
  states.clear();
  std::uint64_t incoming = 0;
  for (const Access& access : accesses) {
    RegionState& rs = state_at(access.region);
    states.push_back(&rs);
    if (rs.pinned) continue;
    rs.pinned = true;
    if ((rs.valid_mask & bit(space)) == 0) incoming += rs.desc.size;
  }
  make_room(space, incoming, out);

  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const Access& access = accesses[i];
    RegionState& rs = *states[i];
    if (args != nullptr) *args++ = describe_one(access, rs.desc);
    rs.last_use = ++tick_;
    const bool valid_here = (rs.valid_mask & bit(space)) != 0;
    if (reads(access.mode) && !valid_here) {
      const SpaceId from = choose_source(rs, space);
      emit_copy(rs, from, space, out);
      add_valid(rs, space);
    } else if (!valid_here) {
      // Pure output: no copy-in, the space just gains the (about to be
      // overwritten) only copy.
      add_valid(rs, space);
    }
    if (writes(access.mode)) {
      // Single-writer: invalidate every other copy.
      for (SpaceId s = 0; s < machine_.space_count(); ++s) {
        if (s != space) drop_valid(rs, s);
      }
      rs.dirty = (space == kHostSpace) ? kInvalidSpace : space;
    }
  }
  for (RegionState* rs : states) rs->pinned = false;
}

std::uint64_t DataDirectory::bytes_missing(const AccessList& accesses,
                                           SpaceId space) const {
  versa::LockGuard lock(mutex_);
  std::uint64_t missing = 0;
  for (const Access& access : accesses) {
    if (!reads(access.mode)) continue;
    const RegionState& rs = state_at(access.region);
    if ((rs.valid_mask & bit(space)) == 0) missing += rs.desc.size;
  }
  return missing;
}

std::uint64_t DataDirectory::bytes_valid(const AccessList& accesses,
                                         SpaceId space) const {
  versa::LockGuard lock(mutex_);
  std::uint64_t valid = 0;
  for (const Access& access : accesses) {
    const RegionState& rs = state_at(access.region);
    if (rs.valid_mask & bit(space)) valid += rs.desc.size;
  }
  return valid;
}

Duration DataDirectory::transfer_cost(const AccessList& accesses,
                                      SpaceId space) const {
  const std::uint64_t missing = bytes_missing(accesses, space);
  if (missing == 0) return 0.0;
  // Estimate with the host->space link when it exists (the dominant path);
  // same-space placements already returned zero above.
  const LinkDesc* link = machine_.interconnect().find(kHostSpace, space);
  if (link == nullptr) return 0.0;
  return link->latency + static_cast<double>(missing) / link->bandwidth;
}

void DataDirectory::flush_all(TransferList& out) {
  versa::LockGuard lock(mutex_);
  // Walk ids in registration order: the sim replays the TransferList.
  for (RegionState& rs : regions_) {
    if (rs.dirty != kInvalidSpace) {
      emit_copy(rs, rs.dirty, kHostSpace, out);
      add_valid(rs, kHostSpace);
      rs.dirty = kInvalidSpace;
    }
  }
}

void DataDirectory::flush_region(RegionId id, TransferList& out) {
  versa::LockGuard lock(mutex_);
  RegionState& rs = state_at(id);
  if (rs.dirty != kInvalidSpace) {
    emit_copy(rs, rs.dirty, kHostSpace, out);
    add_valid(rs, kHostSpace);
    rs.dirty = kInvalidSpace;
  }
}

bool DataDirectory::is_valid_in(RegionId id, SpaceId space) const {
  versa::LockGuard lock(mutex_);
  return (state_at(id).valid_mask & bit(space)) != 0;
}

SpaceId DataDirectory::dirty_space(RegionId id) const {
  versa::LockGuard lock(mutex_);
  return state_at(id).dirty;
}

std::uint64_t DataDirectory::used_bytes(SpaceId space) const {
  versa::LockGuard lock(mutex_);
  VERSA_CHECK(space < used_.size());
  return used_[space];
}

TransferStats DataDirectory::stats() const {
  versa::LockGuard lock(mutex_);
  return stats_;
}

std::uint64_t DataDirectory::eviction_count() const {
  versa::LockGuard lock(mutex_);
  return evictions_;
}

}  // namespace versa
