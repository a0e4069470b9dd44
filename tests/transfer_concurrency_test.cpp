// Concurrency tests for the off-runtime-lock data path, written for the
// CI thread-sanitizer job (run there with VERSA_LOCK_ORDER=1): producer
// threads mutate the coherence directory through acquire() while reader
// threads price placements through its queries, with the lock-order
// checker enforced and a counting violation handler installed.
//
// Two guarantees are pinned down, beyond surviving TSan:
//  * Consistency — a reader can never observe half of an acquire. Each
//    producer always acquires its two regions together, so any pair
//    aggregate (bytes_valid / bytes_missing) must be 0 or the full pair
//    size; a torn snapshot shows up as exactly half.
//  * Serial equivalence — producers own disjoint regions, so each
//    region's transfer sequence is interleaving-independent; the
//    concurrent run's transfer accounting must equal the sum of serial
//    replays of each producer's plan against a private directory.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/directory.h"
#include "machine/machine.h"
#include "util/lock_order.h"

namespace versa {
namespace {

std::atomic<int> g_violations{0};

void counting_handler(const char* /*report*/) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
}

/// Enforce the lock-order checker for the test's duration and fail it if
/// any acquisition inverted the documented ranks.
class LockOrderGuard {
 public:
  LockOrderGuard()
      : was_enforced_(lock_order::enforced()),
        previous_(lock_order::set_violation_handler(counting_handler)) {
    g_violations.store(0, std::memory_order_relaxed);
    lock_order::set_enforced(true);
  }
  ~LockOrderGuard() {
    EXPECT_EQ(g_violations.load(std::memory_order_relaxed), 0)
        << "lock-order violations under the concurrent data path";
    lock_order::set_violation_handler(previous_);
    lock_order::set_enforced(was_enforced_);
  }

 private:
  bool was_enforced_;
  lock_order::ViolationHandler previous_;
};

Machine make_two_gpu_machine() {
  Machine::Builder builder;
  const SpaceId g0 = builder.add_space("g0", 0);  // capacity 0 = unlimited
  const SpaceId g1 = builder.add_space("g1", 0);
  const DeviceId d0 = builder.add_device(DeviceKind::kCuda, g0, "a", 1);
  const DeviceId d1 = builder.add_device(DeviceKind::kCuda, g1, "b", 1);
  const DeviceId c0 = builder.add_device(DeviceKind::kSmp, kHostSpace, "c", 1);
  builder.add_worker(d0);
  builder.add_worker(d1);
  builder.add_worker(c0);
  builder.add_bidi_link(kHostSpace, g0, 1e9, 1e-5);
  builder.add_bidi_link(kHostSpace, g1, 1e9, 1e-5);
  builder.add_bidi_link(g0, g1, 1e9, 1e-5);
  return builder.build();
}

/// One step of a producer's precomputed plan: acquire both pair regions at
/// `space` with `mode` (write flips exclusive residency, read replicates).
struct PlanStep {
  SpaceId space = kHostSpace;
  AccessMode mode = AccessMode::kInOut;
};

std::vector<PlanStep> make_plan(std::uint64_t seed, std::size_t steps,
                                std::size_t space_count) {
  Rng rng(seed);
  std::vector<PlanStep> plan;
  plan.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    PlanStep step;
    step.space = static_cast<SpaceId>(rng.next_below(space_count));
    // Mostly writes (exclusive flips, the torn-read-sensitive case), some
    // reads (replication) so valid sets of size > 1 are exercised too.
    step.mode = rng.next_below(4) == 0 ? AccessMode::kIn : AccessMode::kInOut;
    plan.push_back(step);
  }
  return plan;
}

void apply_step(DataDirectory& dir, RegionId a, RegionId b,
                const PlanStep& step) {
  const AccessList accesses = {Access{a, step.mode, 0, 0},
                               Access{b, step.mode, 0, 0}};
  TransferList ops;
  dir.acquire(accesses, step.space, ops);
}

TEST(TransferConcurrency, ProducersAndReadersSeeConsistentSnapshots) {
  LockOrderGuard lock_order_guard;
  const Machine machine = make_two_gpu_machine();
  DataDirectory directory(machine);

  constexpr int kProducers = 4;
  constexpr int kReaders = 3;
  constexpr std::size_t kSteps = 300;
  constexpr std::uint64_t kRegionBytes = 1 << 12;
  constexpr std::uint64_t kPairBytes = 2 * kRegionBytes;

  // Each producer owns a disjoint pair; both members are always acquired
  // together, so every consistent pair aggregate is 0 or kPairBytes.
  std::vector<std::pair<RegionId, RegionId>> pairs;
  std::vector<std::vector<PlanStep>> plans;
  for (int p = 0; p < kProducers; ++p) {
    pairs.emplace_back(
        directory.register_region("a" + std::to_string(p), kRegionBytes),
        directory.register_region("b" + std::to_string(p), kRegionBytes));
    plans.push_back(
        make_plan(1000u + static_cast<std::uint64_t>(p), kSteps,
                  machine.space_count()));
  }

  std::atomic<bool> stop{false};
  std::atomic<long> torn_valid{0};
  std::atomic<long> torn_missing{0};
  std::atomic<long> bad_cost{0};
  std::atomic<long> reads_done{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (const PlanStep& step : plans[static_cast<std::size_t>(p)]) {
        apply_step(directory, pairs[static_cast<std::size_t>(p)].first,
                   pairs[static_cast<std::size_t>(p)].second, step);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(77u + static_cast<std::uint64_t>(r));
      // do/while: on a loaded single-core host the producers can finish
      // (and raise `stop`) before a reader is first scheduled; every
      // reader still probes at least once, so reads_done stays nonzero.
      do {
        const auto& pair = pairs[rng.next_below(pairs.size())];
        const AccessList probe = {Access::in(pair.first),
                                  Access::in(pair.second)};
        const SpaceId space =
            static_cast<SpaceId>(rng.next_below(machine.space_count()));
        const std::uint64_t valid = directory.bytes_valid(probe, space);
        if (valid != 0 && valid != kPairBytes) {
          torn_valid.fetch_add(1, std::memory_order_relaxed);
        }
        const std::uint64_t missing = directory.bytes_missing(probe, space);
        if (missing != 0 && missing != kPairBytes) {
          torn_missing.fetch_add(1, std::memory_order_relaxed);
        }
        // transfer_cost prices the missing bytes over the host->space
        // link inside ONE directory read; since the consistent missing
        // count is 0 or kPairBytes, the cost must be 0 or the full-pair
        // price — a half-pair price is a torn snapshot. (Each query is
        // its own linearization point, so cost is checked against its own
        // two admissible values, not against the separate missing read.)
        const Duration cost = directory.transfer_cost(probe, space);
        const Duration full_pair =
            1e-5 + static_cast<double>(kPairBytes) / 1e9;
        if (space != kHostSpace && cost != 0.0 &&
            (cost < 0.99 * full_pair || cost > 1.01 * full_pair)) {
          bad_cost.fetch_add(1, std::memory_order_relaxed);
        }
        // Single-region reads; exercise them in the same mix.
        (void)directory.is_valid_in(pair.first, space);
        (void)directory.dirty_space(pair.second);
        reads_done.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<std::size_t>(p)].join();
  }
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }

  EXPECT_EQ(torn_valid.load(), 0);
  EXPECT_EQ(torn_missing.load(), 0);
  EXPECT_EQ(bad_cost.load(), 0);
  EXPECT_GT(reads_done.load(), 0);

  // Serial equivalence: replay each producer's plan against a private
  // directory and sum the accounting. Regions are disjoint, so each
  // region's transfer sequence is interleaving-independent and the
  // concurrent totals must match the serial reference exactly.
  TransferStats reference;
  for (int p = 0; p < kProducers; ++p) {
    DataDirectory replay(machine);
    const RegionId a = replay.register_region("a", kRegionBytes);
    const RegionId b = replay.register_region("b", kRegionBytes);
    for (const PlanStep& step : plans[static_cast<std::size_t>(p)]) {
      apply_step(replay, a, b, step);
    }
    const TransferStats stats = replay.stats();
    reference.input_bytes += stats.input_bytes;
    reference.output_bytes += stats.output_bytes;
    reference.device_bytes += stats.device_bytes;
    reference.input_count += stats.input_count;
    reference.output_count += stats.output_count;
    reference.device_count += stats.device_count;
  }
  const TransferStats concurrent = directory.stats();
  EXPECT_EQ(concurrent.input_bytes, reference.input_bytes);
  EXPECT_EQ(concurrent.output_bytes, reference.output_bytes);
  EXPECT_EQ(concurrent.device_bytes, reference.device_bytes);
  EXPECT_EQ(concurrent.input_count, reference.input_count);
  EXPECT_EQ(concurrent.output_count, reference.output_count);
  EXPECT_EQ(concurrent.device_count, reference.device_count);
}

TEST(TransferConcurrency, ConcurrentFlushersAndAcquirersStayCoherent) {
  LockOrderGuard lock_order_guard;
  const Machine machine = make_two_gpu_machine();
  DataDirectory directory(machine);

  constexpr std::uint64_t kRegionBytes = 1 << 10;
  std::vector<RegionId> regions;
  for (int r = 0; r < 8; ++r) {
    regions.push_back(
        directory.register_region("r" + std::to_string(r), kRegionBytes));
  }

  // Writers dirty regions on the device spaces; a flusher concurrently
  // forces write-backs. Whatever the interleaving, the terminal flush
  // must leave every region host-valid and clean — the invariant a
  // taskwait relies on.
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(500u + static_cast<std::uint64_t>(w));
      for (int i = 0; i < 200; ++i) {
        const RegionId region = regions[rng.next_below(regions.size())];
        const SpaceId space =
            static_cast<SpaceId>(1 + rng.next_below(machine.space_count() - 1));
        TransferList ops;
        directory.acquire({Access::inout(region)}, space, ops);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      TransferList ops;
      directory.flush_all(ops);
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) {
    t.join();
  }

  TransferList ops;
  directory.flush_all(ops);
  for (const RegionId region : regions) {
    EXPECT_TRUE(directory.is_valid_in(region, kHostSpace));
    EXPECT_EQ(directory.dirty_space(region), kInvalidSpace);
  }
}

}  // namespace
}  // namespace versa
