#include "sanitizer/shadow_map.h"

#include <algorithm>

namespace versa::sanitize {

void ShadowMap::record(RegionId region, TaskId id, AccessMode mode,
                       std::uint64_t offset, std::uint64_t length,
                       const OrderedFn& ordered,
                       std::vector<ShadowConflict>& out) {
  if (length == 0) return;
  const std::uint64_t end = offset + length;
  IntervalMap& map = regions_[region];

  auto split_at = [&map](IntervalMap::iterator it, std::uint64_t at) {
    // Precondition: it->first < at < it->second.end.
    Interval right = it->second;
    const std::uint64_t right_end = it->second.end;
    it->second.end = at;
    right.end = right_end;
    return map.emplace(at, std::move(right)).first;
  };

  // Position at the first interval overlapping [offset, end).
  auto it = map.upper_bound(offset);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > offset) {
      it = prev->first < offset ? split_at(prev, offset) : prev;
    }
  }

  std::uint64_t cursor = offset;
  while (cursor < end) {
    if (it == map.end() || it->first >= end) {
      // Tail gap [cursor, end): fresh interval, no priors to conflict.
      Interval fresh;
      fresh.end = end;
      if (writes(mode)) {
        fresh.writer = id;
      } else {
        fresh.readers.push_back(id);
      }
      map.emplace(cursor, std::move(fresh));
      break;
    }
    if (it->first > cursor) {
      // Gap [cursor, it->first): fresh interval, then continue at `it`.
      Interval fresh;
      fresh.end = it->first;
      if (writes(mode)) {
        fresh.writer = id;
      } else {
        fresh.readers.push_back(id);
      }
      const std::uint64_t gap_begin = cursor;
      cursor = it->first;
      map.emplace(gap_begin, std::move(fresh));
      continue;
    }
    // Overlapping interval starting at cursor; trim its tail to the span
    // (split_at leaves `it` on the left piece — the part inside the span;
    // the right piece keeps the prior epoch untouched).
    if (it->second.end > end) split_at(it, end);
    Interval& iv = it->second;
    const std::uint64_t iv_begin = it->first;
    const std::uint64_t iv_end = iv.end;

    // Conflicts against the prior epoch of these bytes.
    if (iv.writer != kInvalidTask && iv.writer != id && !ordered(iv.writer, id)) {
      out.push_back(ShadowConflict{iv.writer, AccessMode::kOut, iv_begin,
                                   iv_end});
    }
    if (writes(mode)) {
      for (const TaskId reader : iv.readers) {
        if (reader == id || ordered(reader, id)) continue;
        out.push_back(ShadowConflict{reader, AccessMode::kIn, iv_begin,
                                     iv_end});
      }
      // New write epoch: this task becomes the last writer. Its own reads
      // (inout) add nothing — any future conflict already sees the write.
      iv.writer = id;
      iv.readers.clear();
    } else if (std::find(iv.readers.begin(), iv.readers.end(), id) ==
               iv.readers.end()) {
      iv.readers.push_back(id);
    }
    cursor = iv_end;
    ++it;
  }
}

void ShadowMap::clear_region(RegionId region) { regions_.erase(region); }

std::size_t ShadowMap::interval_count() const {
  std::size_t total = 0;
  for (const auto& [region, map] : regions_) total += map.size();
  return total;
}

}  // namespace versa::sanitize
