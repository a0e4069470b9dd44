// Unit tests for the discrete-event core: event queue ordering,
// cancellation, virtual clock; noise model statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "sim/event_queue.h"
#include "sim/noise.h"

namespace versa::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, ScheduleAfterUsesCurrentClock) {
  EventQueue q;
  Time seen = -1.0;
  q.schedule_at(2.0, [&] {
    q.schedule_after(3.0, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventHandle h = q.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));  // double-cancel reports failure
  q.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelledEventsAreSkippedOnPop) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(1); });
  const EventHandle h = q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.cancel(h);
  EXPECT_EQ(q.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) q.schedule_after(1.0, chain);
  };
  q.schedule_at(0.0, chain);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    q.schedule_at(static_cast<Time>(i), [&] { ++count; });
  }
  EXPECT_EQ(q.run_until(5.0), 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.pending(), 5u);
}

TEST(EventQueue, EmptyAndPendingTrackLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  const EventHandle h = q.schedule_at(1.0, [] {});
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  q.cancel(h);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepReturnsFalseWhenDrained) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  q.schedule_at(1.0, [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunUntilSkipsCancelledHead) {
  // A cancelled event at the head must not let run_until run a later
  // event past the limit.
  EventQueue q;
  int ran = 0;
  const EventHandle early = q.schedule_at(1.0, [&] { ++ran; });
  q.schedule_at(5.0, [&] { ++ran; });
  EXPECT_TRUE(q.cancel(early));
  EXPECT_EQ(q.run_until(2.0), 0u);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(q.now(), 0.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StaleHandleCannotCancelAReusedSlot) {
  EventQueue q;
  const EventHandle first = q.schedule_at(1.0, [] {});
  EXPECT_TRUE(q.step());
  bool ran = false;
  const EventHandle second = q.schedule_at(2.0, [&] { ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.cancel(first));  // already ran; its slot now holds `second`
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.step());
  EXPECT_TRUE(ran);
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, ManyTiesAndCancellationsAtScale) {
  // 32768 events over 512 distinct times, scheduled in scrambled time
  // order; every third one is cancelled. The first half's cancels happen
  // before the second half is scheduled, so later events reuse the freed
  // slots. The survivors must still run in (time, insertion) order, and
  // the live count must track every schedule, cancel and step.
  constexpr int kEvents = 32768;
  constexpr int kTimes = 512;
  EventQueue q;
  std::vector<int> order;
  order.reserve(kEvents);
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  auto time_of = [](int i) {
    return static_cast<Time>((i * 7919) % kTimes);
  };
  std::size_t live = 0;
  auto cancel_thirds = [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      if (i % 3 != 0) continue;
      ASSERT_TRUE(q.cancel(handles[i]));
      --live;
      ASSERT_FALSE(q.cancel(handles[i])) << "double cancel of event " << i;
    }
  };
  for (int i = 0; i < kEvents; ++i) {
    if (i == kEvents / 2) {
      cancel_thirds(0, i);
      ASSERT_EQ(q.pending(), live);
    }
    handles.push_back(q.schedule_at(time_of(i), [&order, i] {
      order.push_back(i);
    }));
    ++live;
  }
  ASSERT_EQ(q.pending(), live);
  cancel_thirds(kEvents / 2, kEvents);
  ASSERT_EQ(q.pending(), live);

  while (q.step()) {
    --live;
    ASSERT_EQ(q.pending(), live);
  }
  EXPECT_EQ(live, 0u);
  EXPECT_TRUE(q.empty());

  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
    return time_of(a) < time_of(b);
  });
  EXPECT_EQ(order, expected);

  // Every handle is spent: executed ones and cancelled ones alike.
  for (int i = 0; i < kEvents; i += 7) {
    EXPECT_FALSE(q.cancel(handles[i]));
  }
}

TEST(Noise, NoneIsExact) {
  NoiseModel model({NoiseKind::kNone, 0.0}, Rng(1));
  EXPECT_DOUBLE_EQ(model.apply(0.5), 0.5);
}

TEST(Noise, ZeroDurationStaysZero) {
  NoiseModel model({NoiseKind::kLognormal, 0.05}, Rng(1));
  EXPECT_DOUBLE_EQ(model.apply(0.0), 0.0);
}

TEST(Noise, LognormalMeanIsUnbiased) {
  NoiseModel model({NoiseKind::kLognormal, 0.05}, Rng(3));
  Welford acc;
  for (int i = 0; i < 50000; ++i) {
    acc.add(model.apply(1.0));
  }
  EXPECT_NEAR(acc.mean(), 1.0, 0.005);
  EXPECT_NEAR(acc.stddev(), 0.05, 0.005);
}

TEST(Noise, UniformStaysInBand) {
  NoiseModel model({NoiseKind::kUniform, 0.1}, Rng(5));
  for (int i = 0; i < 10000; ++i) {
    const Duration d = model.apply(2.0);
    EXPECT_GE(d, 2.0 * 0.9 - 1e-12);
    EXPECT_LE(d, 2.0 * 1.1 + 1e-12);
  }
}

TEST(Noise, AlwaysStrictlyPositive) {
  NoiseModel model({NoiseKind::kLognormal, 0.5}, Rng(7));
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(model.apply(1e-9), 0.0);
  }
}

}  // namespace
}  // namespace versa::sim
