// Seeded property test of the DependencyAnalyzer against a per-byte
// brute-force oracle. The oracle keeps, for every byte of every region, the
// last writer and the readers since it, and applies each access byte by
// byte in submission order. Random programs (offsets, lengths and modes
// over sparse region ids, several accesses per task, clear_region followed
// by reuse of the region) must produce, task for task, the same
// predecessor set as the oracle, and last_writers must agree per region.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/random.h"
#include "task/dependency_analyzer.h"

namespace versa {
namespace {

constexpr std::uint64_t kRegionBytes = 192;
constexpr int kRegions = 6;
constexpr int kTasks = 1500;

class ByteOracle {
 public:
  /// Predecessors of `task`, sorted and distinct.
  std::vector<TaskId> add_task(TaskId task, const AccessList& accesses) {
    std::vector<TaskId> preds;
    for (const Access& access : accesses) {
      std::vector<Byte>& bytes = region(access.region);
      for (std::uint64_t b = access.offset;
           b < access.offset + access.length; ++b) {
        Byte& byte = bytes[b];
        if (reads(access.mode) && byte.writer != kInvalidTask &&
            byte.writer != task) {
          preds.push_back(byte.writer);
        }
        if (writes(access.mode)) {
          if (byte.writer != kInvalidTask && byte.writer != task) {
            preds.push_back(byte.writer);
          }
          for (TaskId reader : byte.readers) {
            if (reader != task) preds.push_back(reader);
          }
          byte.writer = task;
          byte.readers.clear();
        } else if (std::find(byte.readers.begin(), byte.readers.end(),
                             task) == byte.readers.end()) {
          byte.readers.push_back(task);
        }
      }
    }
    sort_unique(preds);
    return preds;
  }

  std::vector<TaskId> last_writers(RegionId id) const {
    std::vector<TaskId> out;
    const auto found = regions_.find(id);
    if (found == regions_.end()) return out;
    for (const Byte& byte : found->second) {
      if (byte.writer != kInvalidTask) out.push_back(byte.writer);
    }
    sort_unique(out);
    return out;
  }

  void clear_region(RegionId id) { regions_.erase(id); }

 private:
  struct Byte {
    TaskId writer = kInvalidTask;
    std::vector<TaskId> readers;
  };

  std::vector<Byte>& region(RegionId id) {
    std::vector<Byte>& bytes = regions_[id];
    if (bytes.empty()) bytes.resize(kRegionBytes);
    return bytes;
  }

  static void sort_unique(std::vector<TaskId>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }

  std::map<RegionId, std::vector<Byte>> regions_;
};

/// Sparse, non-contiguous region ids, as a directory with reused slots
/// and retired regions hands out.
RegionId region_id(std::uint64_t index) { return 7 + index * 1000003; }

void check_seed(std::uint64_t seed) {
  Rng rng(seed);
  DependencyAnalyzer analyzer;
  ByteOracle oracle;
  std::vector<TaskId> preds;
  for (TaskId task = 0; task < kTasks; ++task) {
    if (rng.next_below(40) == 0) {
      // Retire a region; later tasks reuse its id from a clean slate.
      const RegionId victim = region_id(rng.next_below(kRegions));
      analyzer.clear_region(victim);
      oracle.clear_region(victim);
    }
    AccessList accesses;
    const std::uint64_t count = 1 + rng.next_below(3);
    for (std::uint64_t i = 0; i < count; ++i) {
      Access access;
      access.region = region_id(rng.next_below(kRegions));
      access.mode = static_cast<AccessMode>(rng.next_below(3));
      // Mostly short ranges; sometimes the whole region.
      if (rng.next_below(8) == 0) {
        access.offset = 0;
        access.length = kRegionBytes;
      } else {
        access.offset = rng.next_below(kRegionBytes);
        access.length =
            1 + rng.next_below(std::min<std::uint64_t>(
                    48, kRegionBytes - access.offset));
      }
      accesses.push_back(access);
    }

    preds.clear();
    analyzer.add_task(task, accesses, preds);
    ASSERT_EQ(preds, oracle.add_task(task, accesses))
        << "seed " << seed << ", task " << task;

    if (task % 16 == 0) {
      for (int r = 0; r < kRegions; ++r) {
        std::vector<TaskId> writers;
        analyzer.last_writers(region_id(r), writers);
        ASSERT_EQ(writers, oracle.last_writers(region_id(r)))
            << "seed " << seed << ", task " << task << ", region " << r;
      }
    }
  }

  // Retiring every region leaves no interval behind.
  for (int r = 0; r < kRegions; ++r) analyzer.clear_region(region_id(r));
  EXPECT_EQ(analyzer.interval_count(), 0u);
}

TEST(DependencyAnalyzerOracle, PredecessorsMatchPerByteOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    check_seed(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace versa
