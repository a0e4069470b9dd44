#include "task/dependency_analyzer.h"

#include <algorithm>

#include "common/check.h"

namespace versa {

void DependencyAnalyzer::split_at(IntervalMap& map, std::uint64_t pos) {
  auto it = map.upper_bound(pos);
  if (it == map.begin()) return;
  --it;
  const std::uint64_t start = it->first;
  Interval& node = it->second;
  if (start == pos || node.end <= pos) return;
  // [start, end) contains pos strictly inside: split into
  // [start, pos) + [pos, end).
  Interval right = node;  // copies writer/readers
  node.end = pos;
  map.emplace(pos, std::move(right));
}

void DependencyAnalyzer::add_task(TaskId task, const AccessList& accesses,
                                  std::vector<TaskId>& preds) {
  versa::LockGuard lock(mutex_);
  const std::size_t preds_begin = preds.size();
  for (const Access& access : accesses) {
    VERSA_CHECK_MSG(access.length > 0,
                    "access length must be resolved before analysis");
    const std::uint64_t lo = access.offset;
    const std::uint64_t hi = access.offset + access.length;
    IntervalMap& map = regions_[access.region];
    split_at(map, lo);
    split_at(map, hi);

    // Walk every interval overlapping [lo, hi); after the splits they are
    // fully contained in the range.
    auto it = map.lower_bound(lo);
    std::uint64_t cursor = lo;
    while (cursor < hi) {
      if (it == map.end() || it->first >= hi) {
        // Gap [cursor, hi): never touched before. Create fresh interval.
        Interval fresh;
        fresh.end = hi;
        if (writes(access.mode)) {
          fresh.last_writer = task;
        } else {
          fresh.readers.push_back(task);
        }
        it = map.emplace(cursor, std::move(fresh)).first;
        ++it;
        cursor = hi;
        break;
      }
      if (it->first > cursor) {
        // Gap [cursor, it->first): create interval for the gap only.
        Interval fresh;
        fresh.end = it->first;
        if (writes(access.mode)) {
          fresh.last_writer = task;
        } else {
          fresh.readers.push_back(task);
        }
        map.emplace(cursor, std::move(fresh));
        cursor = it->first;
        continue;
      }
      // Existing interval starting at cursor, contained in [lo, hi).
      Interval& node = it->second;
      VERSA_DCHECK(node.end <= hi);
      if (reads(access.mode) && node.last_writer != kInvalidTask &&
          node.last_writer != task) {
        preds.push_back(node.last_writer);  // RAW
      }
      if (writes(access.mode)) {
        if (node.last_writer != kInvalidTask && node.last_writer != task) {
          preds.push_back(node.last_writer);  // WAW
        }
        for (TaskId reader : node.readers) {
          if (reader != task) preds.push_back(reader);  // WAR
        }
        node.last_writer = task;
        node.readers.clear();
      } else {
        if (std::find(node.readers.begin(), node.readers.end(), task) ==
            node.readers.end()) {
          node.readers.push_back(task);
        }
      }
      cursor = node.end;
      ++it;
    }
  }
  // Deduplicate the predecessors contributed by this call.
  std::sort(preds.begin() + preds_begin, preds.end());
  preds.erase(std::unique(preds.begin() + preds_begin, preds.end()),
              preds.end());
}

void DependencyAnalyzer::clear_region(RegionId region) {
  versa::LockGuard lock(mutex_);
  regions_.erase(region);
}

void DependencyAnalyzer::reset() {
  versa::LockGuard lock(mutex_);
  regions_.clear();
}

std::size_t DependencyAnalyzer::interval_count() const {
  versa::LockGuard lock(mutex_);
  std::size_t total = 0;
  for (const auto& [region, map] : regions_) {
    total += map.size();
  }
  return total;
}

}  // namespace versa
