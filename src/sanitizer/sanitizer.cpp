#include "sanitizer/sanitizer.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <utility>

namespace versa::sanitize {

namespace {

/// Half-open byte ranges, kept sorted and disjoint by normalize().
using Range = std::pair<std::uint64_t, std::uint64_t>;
using Ranges = std::vector<Range>;

void normalize(Ranges& ranges) {
  std::sort(ranges.begin(), ranges.end());
  Ranges merged;
  for (const Range& r : ranges) {
    if (r.first >= r.second) continue;
    if (!merged.empty() && r.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, r.second);
    } else {
      merged.push_back(r);
    }
  }
  ranges = std::move(merged);
}

/// a minus b; both normalized.
Ranges subtract(const Ranges& a, const Ranges& b) {
  Ranges out;
  std::size_t bi = 0;
  for (const Range& r : a) {
    std::uint64_t cursor = r.first;
    while (bi < b.size() && b[bi].second <= cursor) ++bi;
    std::size_t j = bi;
    while (cursor < r.second) {
      if (j >= b.size() || b[j].first >= r.second) {
        out.emplace_back(cursor, r.second);
        break;
      }
      if (b[j].first > cursor) out.emplace_back(cursor, b[j].first);
      cursor = std::max(cursor, b[j].second);
      ++j;
    }
  }
  return out;
}

}  // namespace

const char* to_string(SanitizeMode mode) {
  switch (mode) {
    case SanitizeMode::kOff:
      return "off";
    case SanitizeMode::kSpec:
      return "spec";
    case SanitizeMode::kRace:
      return "race";
  }
  return "?";
}

bool parse_sanitize_mode(const std::string& text, SanitizeMode& mode) {
  if (text == "off") {
    mode = SanitizeMode::kOff;
  } else if (text == "spec") {
    mode = SanitizeMode::kSpec;
  } else if (text == "race") {
    mode = SanitizeMode::kRace;
  } else {
    return false;
  }
  return true;
}

AccessSanitizer::AccessSanitizer(SanitizeConfig config) : config_(config) {}

void AccessSanitizer::on_task_registered(const Task& task,
                                         const std::vector<TaskId>& preds,
                                         TaskId hb_parent) {
  if (config_.mode == SanitizeMode::kRace) {
    clocks_.add(task.id, preds, hb_parent);
  }
  types_[task.id] = task.type;
}

void AccessSanitizer::on_task_absorbed(TaskId member, TaskId host) {
  if (config_.mode == SanitizeMode::kRace) {
    clocks_.alias(member, host);
  }
}

void AccessSanitizer::add_violation(Violation v) {
  switch (v.kind) {
    case ViolationKind::kRace:
      ++stats_.races;
      break;
    case ViolationKind::kOutOfSpec:
      ++stats_.out_of_spec;
      break;
    case ViolationKind::kOverDeclaration:
      ++stats_.over_declaration;
      break;
  }
  if (violations_.size() >= config_.max_violations) {
    ++stats_.dropped;
    return;
  }
  violations_.push_back(v);
}

void AccessSanitizer::on_task_complete(const Task& task,
                                       const WitnessLog& witness) {
  // Shells and fuse stubs retire through finish_stub, never through the
  // completion port; skip defensively if one ever shows up.
  if (task.split_children > 0 || task.fused_into != kInvalidTask) return;

  ++stats_.tasks_checked;
  if (!witness.empty()) ++stats_.tasks_witnessed;

  // --- conformance (spec + race modes): witness vs declaration ----------
  // Per region: the byte sets the clauses allow for reading/writing, and
  // the byte sets the body witnessed.
  std::vector<Violation> conformance;
  std::map<RegionId, Ranges> decl_read;
  std::map<RegionId, Ranges> decl_write;
  std::map<RegionId, Ranges> decl_all;
  for (const Access& access : task.accesses) {
    const Range r{access.offset, access.offset + access.length};
    if (reads(access.mode)) decl_read[access.region].push_back(r);
    if (writes(access.mode)) decl_write[access.region].push_back(r);
    decl_all[access.region].push_back(r);
  }
  for (auto& [region, ranges] : decl_read) normalize(ranges);
  for (auto& [region, ranges] : decl_write) normalize(ranges);
  for (auto& [region, ranges] : decl_all) normalize(ranges);

  /// Out-of-spec witness ranges per region, by direction — also the extra
  /// spans race mode must shadow (an under-declared access is unordered
  /// precisely because the analyzer never saw it).
  std::map<RegionId, Ranges> rogue_read;
  std::map<RegionId, Ranges> rogue_write;
  if (!witness.empty()) {
    std::map<RegionId, Ranges> wit_read;
    std::map<RegionId, Ranges> wit_write;
    std::map<RegionId, Ranges> wit_all;
    for (const WitnessSpan& span : witness) {
      const Range r{span.offset, span.offset + span.length};
      if (reads(span.mode)) wit_read[span.region].push_back(r);
      if (writes(span.mode)) wit_write[span.region].push_back(r);
      wit_all[span.region].push_back(r);
    }
    auto flag_rogue = [&](std::map<RegionId, Ranges>& witnessed,
                          std::map<RegionId, Ranges>& declared,
                          std::map<RegionId, Ranges>& rogue, AccessMode mode) {
      for (auto& [region, ranges] : witnessed) {
        normalize(ranges);
        const auto decl = declared.find(region);
        Ranges extra = decl == declared.end() ? ranges
                                              : subtract(ranges, decl->second);
        for (const Range& r : extra) {
          Violation v;
          v.kind = ViolationKind::kOutOfSpec;
          v.task_a = task.id;
          v.type_a = task.type;
          v.region = region;
          v.begin = r.first;
          v.end = r.second;
          v.mode_a = mode;
          v.mode_b = mode;
          v.bytes = r.second - r.first;
          conformance.push_back(v);
        }
        if (!extra.empty()) {
          Ranges& sink = rogue[region];
          sink.insert(sink.end(), extra.begin(), extra.end());
          normalize(sink);
        }
      }
    };
    flag_rogue(wit_read, decl_read, rogue_read, AccessMode::kIn);
    flag_rogue(wit_write, decl_write, rogue_write, AccessMode::kOut);

    // Over-declaration: declared bytes the body never touched in any
    // direction. Attributed as wasted transfer bytes — the copy_deps
    // machinery moved (or would move) them for nothing.
    for (auto& [region, declared] : decl_all) {
      const auto wit = wit_all.find(region);
      Ranges untouched = declared;
      if (wit != wit_all.end()) {
        normalize(wit->second);
        untouched = subtract(declared, wit->second);
      }
      for (const Range& r : untouched) {
        Violation v;
        v.kind = ViolationKind::kOverDeclaration;
        v.task_a = task.id;
        v.type_a = task.type;
        v.region = region;
        v.begin = r.first;
        v.end = r.second;
        v.mode_a = AccessMode::kIn;
        v.mode_b = AccessMode::kIn;
        v.bytes = r.second - r.first;
        conformance.push_back(v);
      }
    }
  }

  // --- determinacy races (race mode): shadow the touched bytes ----------
  struct TaggedConflict {
    ShadowConflict conflict;
    RegionId region;
    AccessMode mode;  ///< the completing task's access mode
  };
  std::vector<TaggedConflict> tagged;
  if (config_.mode == SanitizeMode::kRace) {
    const OrderedFn ordered = [this](TaskId a, TaskId b) {
      return clocks_.ordered(a, b);
    };
    std::vector<ShadowConflict> conflicts;
    auto shadow_span = [&](RegionId region, AccessMode mode,
                           std::uint64_t offset, std::uint64_t length) {
      conflicts.clear();
      shadow_.record(region, task.id, mode, offset, length, ordered,
                     conflicts);
      for (const ShadowConflict& c : conflicts) {
        tagged.push_back(TaggedConflict{c, region, mode});
      }
    };
    for (const Access& access : task.accesses) {
      shadow_span(access.region, access.mode, access.offset, access.length);
    }
    for (const auto& [region, ranges] : rogue_read) {
      for (const Range& r : ranges) {
        shadow_span(region, AccessMode::kIn, r.first, r.second - r.first);
      }
    }
    for (const auto& [region, ranges] : rogue_write) {
      for (const Range& r : ranges) {
        shadow_span(region, AccessMode::kOut, r.first, r.second - r.first);
      }
    }
  }

  // --- fold results into the report --------------------------------------
  for (Violation& v : conformance) {
    if (v.kind == ViolationKind::kOverDeclaration) {
      stats_.wasted_transfer_bytes += v.bytes;
    }
    add_violation(v);
  }
  for (const TaggedConflict& t : tagged) {
    const TaskId low = std::min(t.conflict.prior, task.id);
    const TaskId high = std::max(t.conflict.prior, task.id);
    const PairKey key{low, high, t.region};
    const std::uint64_t span_bytes = t.conflict.end - t.conflict.begin;
    const auto it = race_index_.find(key);
    if (it != race_index_.end()) {
      violations_[it->second].bytes += span_bytes;
      continue;
    }
    Violation v;
    v.kind = ViolationKind::kRace;
    v.task_a = t.conflict.prior;
    const auto prior_type = types_.find(t.conflict.prior);
    v.type_a = prior_type == types_.end() ? kInvalidTaskType
                                          : prior_type->second;
    v.task_b = task.id;
    v.type_b = task.type;
    v.region = t.region;
    v.begin = t.conflict.begin;
    v.end = t.conflict.end;
    v.mode_a = t.conflict.prior_mode;
    v.mode_b = t.mode;
    v.bytes = span_bytes;
    if (violations_.size() < config_.max_violations) {
      race_index_.emplace(key, violations_.size());
    }
    add_violation(v);
  }
}

void AccessSanitizer::on_region_unregistered(RegionId region) {
  if (config_.mode == SanitizeMode::kRace) {
    shadow_.clear_region(region);
  }
}

std::vector<Violation> AccessSanitizer::violations() const {
  return violations_;
}

SanitizeStats AccessSanitizer::stats() const { return stats_; }

std::uint64_t AccessSanitizer::error_count() const {
  return stats_.races + stats_.out_of_spec;
}

bool AccessSanitizer::write_csv_report(const std::string& path) const {
  return write_csv(path, violations_, stats_);
}

void AccessSanitizer::render(std::ostream& os) const {
  render_report(os, violations_, stats_);
}

}  // namespace versa::sanitize
