// Model-checking property tests for the coherence directory: random
// acquire/flush sequences are replayed against an independent oracle that
// tracks per-region validity and dirtiness, and every invariant the rest
// of the runtime relies on is checked after each step:
//   I1  every region has at least one valid copy somewhere;
//   I2  a dirty region's dirty space holds a valid copy;
//   I3  a region is dirty in at most one space, never the host;
//   I4  used_bytes(space) equals the sum of valid copies there;
//   I5  transfer categories match the endpoints;
//   I6  after flush_all, no region is dirty and host copies are valid.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "data/directory.h"
#include "machine/presets.h"

namespace versa {
namespace {

class DirectoryOracle {
 public:
  explicit DirectoryOracle(std::size_t spaces) : spaces_(spaces) {}

  void add_region(RegionId id, std::uint64_t size) {
    regions_[id] = State{{kHostSpace}, kInvalidSpace, size};
  }

  void acquire(const AccessList& accesses, SpaceId space) {
    for (const Access& access : accesses) {
      State& state = regions_.at(access.region);
      if (reads(access.mode)) {
        state.valid.insert(space);
      } else if (state.valid.count(space) == 0) {
        state.valid.insert(space);
      }
      if (writes(access.mode)) {
        state.valid = {space};
        state.dirty = space == kHostSpace ? kInvalidSpace : space;
      }
    }
  }

  void flush_all() {
    for (auto& [id, state] : regions_) {
      if (state.dirty != kInvalidSpace) {
        state.valid.insert(kHostSpace);
        state.dirty = kInvalidSpace;
      }
    }
  }

  struct State {
    std::set<SpaceId> valid;
    SpaceId dirty = kInvalidSpace;
    std::uint64_t size = 0;
  };

  const State& state(RegionId id) const { return regions_.at(id); }
  const std::map<RegionId, State>& regions() const { return regions_; }

 private:
  std::size_t spaces_;
  std::map<RegionId, State> regions_;
};

class DirectoryPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DirectoryPropertyTest, RandomOpsMatchOracleAndKeepInvariants) {
  // Capacities are unlimited here (capacity 0) so eviction never perturbs
  // the oracle; the eviction path has dedicated tests in data_test.
  Machine::Builder builder;
  const SpaceId g0 = builder.add_space("g0", 0);
  const SpaceId g1 = builder.add_space("g1", 0);
  const DeviceId d0 = builder.add_device(DeviceKind::kCuda, g0, "a", 1);
  const DeviceId d1 = builder.add_device(DeviceKind::kCuda, g1, "b", 1);
  const DeviceId c0 = builder.add_device(DeviceKind::kSmp, kHostSpace, "c", 1);
  builder.add_worker(d0);
  builder.add_worker(d1);
  builder.add_worker(c0);
  builder.add_bidi_link(kHostSpace, g0, 1e9, 0.0);
  builder.add_bidi_link(kHostSpace, g1, 1e9, 0.0);
  builder.add_bidi_link(g0, g1, 1e9, 0.0);
  const Machine machine = builder.build();

  DataDirectory directory(machine);
  DirectoryOracle oracle(machine.space_count());
  Rng rng(GetParam());

  constexpr std::size_t kRegions = 6;
  std::vector<RegionId> regions;
  for (std::size_t r = 0; r < kRegions; ++r) {
    const std::uint64_t size = 128 * (1 + rng.next_below(8));
    regions.push_back(
        directory.register_region("r" + std::to_string(r), size));
    oracle.add_region(regions.back(), size);
  }

  auto check_invariants = [&] {
    std::vector<std::uint64_t> used(machine.space_count(), 0);
    for (const auto& [id, want] : oracle.regions()) {
      // Oracle agreement on validity and dirtiness.
      for (SpaceId s = 0; s < machine.space_count(); ++s) {
        ASSERT_EQ(directory.is_valid_in(id, s), want.valid.count(s) != 0)
            << "region " << id << " space " << s;
      }
      ASSERT_EQ(directory.dirty_space(id), want.dirty) << "region " << id;
      // I1-I3.
      ASSERT_FALSE(want.valid.empty());
      if (want.dirty != kInvalidSpace) {
        ASSERT_NE(want.dirty, kHostSpace);
        ASSERT_TRUE(want.valid.count(want.dirty));
      }
      for (const SpaceId s : want.valid) {
        used[s] += want.size;
      }
    }
    for (SpaceId s = 0; s < machine.space_count(); ++s) {
      ASSERT_EQ(directory.used_bytes(s), used[s]) << "space " << s;  // I4
    }
  };

  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.next_below(10));
    if (op < 8) {
      // Random acquire of 1-2 regions at a random space.
      AccessList accesses;
      const std::size_t clauses = 1 + rng.next_below(2);
      std::set<RegionId> used_regions;
      for (std::size_t c = 0; c < clauses; ++c) {
        const RegionId region = regions[rng.next_below(kRegions)];
        if (!used_regions.insert(region).second) continue;
        const auto mode = static_cast<AccessMode>(rng.next_below(3));
        accesses.push_back(Access{region, mode, 0, 0});
      }
      const SpaceId space =
          static_cast<SpaceId>(rng.next_below(machine.space_count()));
      TransferList ops;
      directory.acquire(accesses, space, ops);
      oracle.acquire(accesses, space);
      for (const TransferOp& transfer : ops) {
        EXPECT_EQ(transfer.category,
                  classify_transfer(transfer.from, transfer.to));  // I5
        EXPECT_NE(transfer.from, transfer.to);
      }
    } else {
      TransferList ops;
      directory.flush_all(ops);
      oracle.flush_all();
      for (const auto& [id, state] : oracle.regions()) {
        EXPECT_EQ(directory.dirty_space(id), kInvalidSpace);  // I6
        EXPECT_TRUE(directory.is_valid_in(id, kHostSpace));
      }
    }
    check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryPropertyTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u));

// Linearization property over randomized interleavings: a writer thread
// replays a random plan of paired acquires while reader threads sample
// pair aggregates. Every read must correspond to the directory state
// after some *prefix* of the plan — and because both pair members are
// acquired together, every prefix state prices the pair as 0 or its full
// size. Observing half the pair means a read linearized inside an
// acquire, which the directory mutex forbids. The final state must equal
// the serial oracle replay of the full plan, pinning down that the
// concurrent run linearized to the plan order itself.
class DirectoryLinearizationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectoryLinearizationTest, ReadsLinearizeAgainstPairedAcquires) {
  Machine::Builder builder;
  const SpaceId g0 = builder.add_space("g0", 0);
  const SpaceId g1 = builder.add_space("g1", 0);
  const DeviceId d0 = builder.add_device(DeviceKind::kCuda, g0, "a", 1);
  const DeviceId d1 = builder.add_device(DeviceKind::kCuda, g1, "b", 1);
  builder.add_worker(d0);
  builder.add_worker(d1);
  builder.add_bidi_link(kHostSpace, g0, 1e9, 0.0);
  builder.add_bidi_link(kHostSpace, g1, 1e9, 0.0);
  builder.add_bidi_link(g0, g1, 1e9, 0.0);
  const Machine machine = builder.build();

  DataDirectory directory(machine);
  DirectoryOracle oracle(machine.space_count());
  const std::uint64_t kBytesA = 128;
  const std::uint64_t kBytesB = 256;
  const std::uint64_t kPair = kBytesA + kBytesB;
  const RegionId a = directory.register_region("a", kBytesA);
  const RegionId b = directory.register_region("b", kBytesB);
  oracle.add_region(a, kBytesA);
  oracle.add_region(b, kBytesB);

  // Precompute the plan so the serial oracle replay is exact.
  struct Step {
    SpaceId space;
    AccessMode mode;
  };
  Rng rng(GetParam());
  std::vector<Step> plan;
  for (int i = 0; i < 500; ++i) {
    plan.push_back(Step{
        static_cast<SpaceId>(rng.next_below(machine.space_count())),
        rng.next_below(3) == 0 ? AccessMode::kIn : AccessMode::kInOut});
  }

  std::atomic<bool> stop{false};
  std::atomic<long> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng reader_rng(GetParam() ^ (0xabcu + static_cast<std::uint64_t>(r)));
      while (!stop.load(std::memory_order_acquire)) {
        const AccessList probe = {Access::in(a), Access::in(b)};
        const SpaceId s = static_cast<SpaceId>(
            reader_rng.next_below(machine.space_count()));
        const std::uint64_t valid = directory.bytes_valid(probe, s);
        if (valid != 0 && valid != kPair) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        const std::uint64_t missing = directory.bytes_missing(probe, s);
        if (missing != 0 && missing != kPair) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (const Step& step : plan) {
    const AccessList accesses = {Access{a, step.mode, 0, 0},
                                 Access{b, step.mode, 0, 0}};
    TransferList ops;
    directory.acquire(accesses, step.space, ops);
    oracle.acquire(accesses, step.space);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }

  EXPECT_EQ(torn.load(), 0);
  // Terminal state equals the serial replay: the concurrent history
  // linearized to the plan order.
  for (SpaceId s = 0; s < machine.space_count(); ++s) {
    EXPECT_EQ(directory.is_valid_in(a, s), oracle.state(a).valid.count(s) != 0)
        << "space " << s;
    EXPECT_EQ(directory.is_valid_in(b, s), oracle.state(b).valid.count(s) != 0)
        << "space " << s;
  }
  EXPECT_EQ(directory.dirty_space(a), oracle.state(a).dirty);
  EXPECT_EQ(directory.dirty_space(b), oracle.state(b).dirty);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryLinearizationTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace versa
