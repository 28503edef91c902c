#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace astraea {
namespace {

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  q.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  q.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Milliseconds(30));
}

TEST(EventQueueTest, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(Milliseconds(10), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.Schedule(Milliseconds(10), [&] { ++fired; });
  q.Schedule(Milliseconds(20), [&] { ++fired; });
  q.RunUntil(Milliseconds(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Milliseconds(15));
  q.RunUntil(Milliseconds(25));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      q.ScheduleAfter(Milliseconds(1), recurse);
    }
  };
  q.Schedule(0, recurse);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), Milliseconds(4));
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  const uint64_t id = q.Schedule(Milliseconds(10), [&] { ++fired; });
  q.Schedule(Milliseconds(20), [&] { ++fired; });
  q.Cancel(id);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, ExecutedCountsOnlyRunEvents) {
  EventQueue q;
  q.Schedule(Milliseconds(1), [] {});
  const uint64_t id = q.Schedule(Milliseconds(2), [] {});
  q.Cancel(id);
  q.RunAll();
  EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueueTest, RunUntilLandsOnBoundaryWhenDrainedEarly) {
  EventQueue q;
  int fired = 0;
  q.Schedule(Milliseconds(10), [&] { ++fired; });
  q.RunUntil(Milliseconds(50));  // queue drains at 10ms; clock must still land on 50ms
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Milliseconds(50));
  q.RunUntil(Milliseconds(50));  // idempotent on an empty queue
  EXPECT_EQ(q.now(), Milliseconds(50));
}

// Same-tick events must dispatch in schedule order even when interleaved with
// other ticks — the scramble below lands duplicates of each timestamp in
// different insertion epochs.
TEST(EventQueueTest, SameTickFifoAcrossBucketBoundaries) {
  EventQueue q;
  std::vector<std::pair<TimeNs, int>> order;
  constexpr int kEvents = 2000;
  for (int i = 0; i < kEvents; ++i) {
    const TimeNs when = Milliseconds((i * 7919) % 50);  // 50 ticks, 40 duplicates each
    q.Schedule(when, [&order, when, i] { order.emplace_back(when, i); });
  }
  q.RunAll();
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  for (size_t i = 1; i < order.size(); ++i) {
    ASSERT_LE(order[i - 1].first, order[i].first);
    if (order[i - 1].first == order[i].first) {
      ASSERT_LT(order[i - 1].second, order[i].second);  // FIFO within a tick
    }
  }
}

// Near-term and far-future events mixed together must dispatch in (time,
// FIFO) order across skews from microseconds to hours.
TEST(EventQueueTest, OrderHoldsAcrossLargeTimeSkews) {
  EventQueue q;
  std::vector<uint64_t> order;
  std::vector<TimeNs> whens;
  uint64_t x = 42;
  for (int i = 0; i < 500; ++i) {
    // Log-uniform-ish skews: 1us .. ~2.3 hours.
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const TimeNs when = Microseconds(1) << ((x >> 59));  // 1us * 2^[0,31]
    whens.push_back(when);
    q.Schedule(when, [&order, i] { order.push_back(static_cast<uint64_t>(i)); });
  }
  q.RunAll();
  ASSERT_EQ(order.size(), 500u);
  for (size_t i = 1; i < order.size(); ++i) {
    const TimeNs a = whens[order[i - 1]];
    const TimeNs b = whens[order[i]];
    ASSERT_TRUE(a < b || (a == b && order[i - 1] < order[i]));
  }
}

// A cancelled event's pooled slot is recycled by later schedules; the stale
// handle's generation must no longer match, so cancelling it again (or the
// original callback) cannot touch the new occupant.
TEST(EventQueueTest, CancelThenRescheduleReusesSlotWithoutStaleFire) {
  EventQueue q;
  int stale_fired = 0;
  int fresh_fired = 0;
  const uint64_t stale = q.Schedule(Milliseconds(10), [&] { ++stale_fired; });
  q.Cancel(stale);
  // Drain so the cancelled slot is freed, then reschedule into it.
  q.RunAll();
  const uint64_t fresh = q.Schedule(Milliseconds(20), [&] { ++fresh_fired; });
  EXPECT_NE(stale, fresh);  // generation differs even if the slot index matches
  q.Cancel(stale);          // stale handle: must be a no-op, not cancel `fresh`
  q.RunAll();
  EXPECT_EQ(stale_fired, 0);
  EXPECT_EQ(fresh_fired, 1);
  EXPECT_GT(q.slots_recycled(), 0u);
}

// Regression for the seed scheduler's O(n) cancel scan: 100k timers that are
// each cancelled and re-armed (the sender's RTO pattern). Linear-scan
// cancellation makes this quadratic (~10^10 steps); the pooled O(1) Cancel
// keeps it well under the generous wall-clock bound. The executed-events
// counter pins the exact amount of work done.
TEST(EventQueueTest, HundredThousandTimerChurnIsSubQuadratic) {
  constexpr size_t kTimers = 100'000;
  EventQueue q;
  const auto start = std::chrono::steady_clock::now();
  std::vector<uint64_t> ids(kTimers);
  uint64_t fired = 0;
  // Arm, cancel and re-arm every timer; only the re-armed generation fires.
  for (size_t i = 0; i < kTimers; ++i) {
    ids[i] = q.Schedule(Milliseconds(100) + static_cast<TimeNs>(i), [&] { ++fired; });
  }
  for (size_t i = 0; i < kTimers; ++i) {
    q.Cancel(ids[i]);
  }
  EXPECT_EQ(q.pending(), 0u);
  for (size_t i = 0; i < kTimers; ++i) {
    q.Schedule(Milliseconds(200) + static_cast<TimeNs>(i), [&] { ++fired; });
  }
  q.RunAll();
  EXPECT_EQ(fired, kTimers);
  EXPECT_EQ(q.executed(), kTimers);  // cancelled events never dispatched
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // ~300k O(1) operations: milliseconds in practice. The bound is two orders
  // of magnitude slack for CI noise, yet another two-plus below quadratic.
  EXPECT_LT(elapsed, 10.0);
}

// Differential check: a random schedule/cancel/run workload against a
// std::multimap reference executing the same (when, insertion-order) total
// order. The reference keys ties on an insertion counter — the queue's
// documented FIFO tie-break — because cancel handles encode slot/generation
// and do not themselves order events.
TEST(EventQueueTest, RandomizedDifferentialAgainstOrderedMapReference) {
  EventQueue q;
  using Key = std::pair<TimeNs, uint64_t>;  // (when, insertion counter)
  std::map<Key, uint64_t> reference;        // -> step label
  std::map<uint64_t, Key> live;             // cancel handle -> key
  std::vector<uint64_t> executed_queue;
  std::vector<uint64_t> executed_reference;
  Rng rng(20260808);
  TimeNs ref_now = 0;
  uint64_t insertions = 0;

  auto run_reference_until = [&](TimeNs until) {
    while (!reference.empty() && reference.begin()->first.first <= until) {
      const auto it = reference.begin();
      ref_now = it->first.first;
      executed_reference.push_back(it->second);
      reference.erase(it);
    }
    ref_now = std::max(ref_now, until);
  };

  for (int step = 0; step < 20'000; ++step) {
    const double roll = rng.Uniform();
    if (roll < 0.55) {
      const TimeNs when = q.now() + rng.UniformInt(0, Milliseconds(40));
      const uint64_t id =
          q.Schedule(when, [&executed_queue, step] {
            executed_queue.push_back(static_cast<uint64_t>(step));
          });
      const Key key{when, insertions++};
      reference.emplace(key, static_cast<uint64_t>(step));
      live[id] = key;
    } else if (roll < 0.75 && !live.empty()) {
      // Cancel a pseudo-random live event.
      auto it = live.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      q.Cancel(it->first);
      reference.erase(it->second);
      live.erase(it);
    } else {
      const TimeNs until = q.now() + rng.UniformInt(0, Milliseconds(10));
      q.RunUntil(until);
      run_reference_until(until);
      // Drop reference entries for events the queue just executed, so `live`
      // only holds genuinely pending handles.
      for (auto it = live.begin(); it != live.end();) {
        it = reference.count(it->second) == 0 ? live.erase(it) : std::next(it);
      }
      ASSERT_EQ(q.now(), ref_now);
      ASSERT_EQ(executed_queue, executed_reference);
    }
  }
  q.RunAll();
  run_reference_until(std::numeric_limits<TimeNs>::max());
  EXPECT_EQ(executed_queue, executed_reference);
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace astraea
