#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sim/delay_line.h"
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

// An event that throws leaves the queue consistent: it is not run again, and
// the events behind it still run in order.
TEST(EventQueueTest, ThrowingEventIsNotRunAgain) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Milliseconds(1), [&order] {
    order.push_back(1);
    throw std::runtime_error("event failed");
  });
  q.Schedule(Milliseconds(2), [&order] { order.push_back(2); });
  EXPECT_THROW(q.RunAll(), std::runtime_error);
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 0u);
}

// Reference scheduler for the differential tests: a std::map executing the
// same (when, insertion-order) total order. It keys ties on an insertion
// counter — the queue's documented FIFO tie-break — because cancel handles
// encode slot/generation and do not themselves order events. Every
// Schedule() and every line Push() takes the next counter value, as each
// takes the next seq from the queue.
struct ReferenceQueue {
  using Key = std::pair<TimeNs, uint64_t>;  // (when, insertion counter)

  Key Insert(TimeNs when, uint64_t label) {
    const Key key{when, insertions++};
    pending.emplace(key, label);
    return key;
  }

  void RunUntil(TimeNs until) {
    while (!pending.empty() && pending.begin()->first.first <= until) {
      const auto it = pending.begin();
      now = it->first.first;
      executed.push_back(it->second);
      pending.erase(it);
    }
    now = std::max(now, until);
  }

  std::map<Key, uint64_t> pending;  // -> step label
  std::vector<uint64_t> executed;
  TimeNs now = 0;
  uint64_t insertions = 0;
};

// Differential check: a random schedule/cancel/run workload against the
// ordered-map reference.
TEST(EventQueueTest, RandomizedDifferentialAgainstOrderedMapReference) {
  EventQueue q;
  ReferenceQueue reference;
  std::map<uint64_t, ReferenceQueue::Key> live;  // cancel handle -> key
  std::vector<uint64_t> executed_queue;
  Rng rng(20260808);

  for (int step = 0; step < 20'000; ++step) {
    const double roll = rng.Uniform();
    if (roll < 0.55) {
      const TimeNs when = q.now() + rng.UniformInt(0, Milliseconds(40));
      const uint64_t id =
          q.Schedule(when, [&executed_queue, step] {
            executed_queue.push_back(static_cast<uint64_t>(step));
          });
      live[id] = reference.Insert(when, static_cast<uint64_t>(step));
    } else if (roll < 0.75 && !live.empty()) {
      // Cancel a pseudo-random live event.
      auto it = live.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      q.Cancel(it->first);
      reference.pending.erase(it->second);
      live.erase(it);
    } else {
      const TimeNs until = q.now() + rng.UniformInt(0, Milliseconds(10));
      q.RunUntil(until);
      reference.RunUntil(until);
      // Drop reference entries for events the queue just executed, so `live`
      // only holds genuinely pending handles.
      for (auto it = live.begin(); it != live.end();) {
        it = reference.pending.count(it->second) == 0 ? live.erase(it) : std::next(it);
      }
      ASSERT_EQ(q.now(), reference.now);
      ASSERT_EQ(executed_queue, reference.executed);
    }
  }
  q.RunAll();
  reference.RunUntil(std::numeric_limits<TimeNs>::max());
  EXPECT_EQ(executed_queue, reference.executed);
  EXPECT_EQ(q.pending(), 0u);
}

// Delay-line owner for the tests: appends each delivered label to a log.
struct LineLog {
  void Deliver(const uint64_t& label) { log->push_back(label); }
  std::vector<uint64_t>* log;
};
using TestLine = DelayLine<uint64_t, LineLog, &LineLog::Deliver>;

// A line item and a plain event due at the same nanosecond run in the order
// of their seqs, which the line item reserves when it is pushed — also when
// its head entry is only scheduled later, after the item ahead of it ran.
// A plain event at 10 ms that logs kPlain.
constexpr uint64_t kPlain = 100;
void SchedulePlain(EventQueue& q, std::vector<uint64_t>* log) {
  q.Schedule(Milliseconds(10), [log] { log->push_back(kPlain); });
}

TEST(EventQueueTest, LineItemAndPlainEventAtSameWhenFollowReservedSeq) {
  for (const bool plain_first : {true, false}) {
    EventQueue q;
    std::vector<uint64_t> log;
    LineLog sink{&log};
    TestLine line(&q, &sink, Milliseconds(10));
    if (plain_first) {
      SchedulePlain(q, &log);
      line.Push(1);
    } else {
      line.Push(1);
      SchedulePlain(q, &log);
    }
    q.RunAll();
    EXPECT_EQ(log, plain_first ? (std::vector<uint64_t>{kPlain, 1})
                               : (std::vector<uint64_t>{1, kPlain}));
    EXPECT_EQ(q.now(), Milliseconds(10));
  }

  // Item 2's head entry enters the heap only when item 1 runs, yet it keeps
  // the seq it reserved when pushed: before a plain event scheduled after
  // the push, after one scheduled before it.
  for (const bool plain_between : {true, false}) {
    EventQueue q;
    std::vector<uint64_t> log;
    LineLog sink{&log};
    TestLine line(&q, &sink, Milliseconds(10));
    line.Push(1);
    if (plain_between) {
      SchedulePlain(q, &log);
      line.Push(2);
    } else {
      line.Push(2);
      SchedulePlain(q, &log);
    }
    q.RunAll();
    EXPECT_EQ(log, plain_between ? (std::vector<uint64_t>{1, kPlain, 2})
                                 : (std::vector<uint64_t>{1, 2, kPlain}));
    EXPECT_EQ(q.executed(), 3u);
  }
}

// pending() counts live heap entries: a line holds one (its head) however
// many items it carries; executed() counts every delivered item.
TEST(EventQueueTest, PendingCountsLineHeadsOnly) {
  EventQueue q;
  std::vector<uint64_t> log;
  LineLog sink{&log};
  TestLine line(&q, &sink, Milliseconds(5));
  for (uint64_t i = 0; i < 40; ++i) {
    line.Push(i);
  }
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(line.size(), 40u);
  q.Schedule(Milliseconds(1), [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.RunUntil(Milliseconds(2));
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.executed(), 41u);
  EXPECT_EQ(log.size(), 40u);
  EXPECT_EQ(q.line_items_max(), 40u);
}

// The ring wraps (pushes after pops reuse its front) and then doubles while
// wrapped; deliveries stay in push order throughout.
TEST(EventQueueTest, DelayLineRingWrapsAndGrowsInFifoOrder) {
  EventQueue q;
  std::vector<uint64_t> log;
  LineLog sink{&log};
  TestLine line(&q, &sink, Microseconds(100));
  uint64_t next = 0;
  // Keep ~10 items in flight for many rounds: the head index walks around
  // the initial ring several times without growing it.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 5; ++i) {
      line.Push(next++);
    }
    q.RunUntil(q.now() + Microseconds(50));
  }
  // Then a burst far beyond the current capacity while the ring is wrapped.
  for (int i = 0; i < 1000; ++i) {
    line.Push(next++);
  }
  q.RunAll();
  ASSERT_EQ(log.size(), next);
  for (uint64_t i = 0; i < next; ++i) {
    ASSERT_EQ(log[i], i);
  }
  EXPECT_EQ(line.size(), 0u);
  EXPECT_EQ(q.executed(), next);
}

// A line destroyed with items in flight drops its head entry: nothing of it
// runs afterwards and pending() no longer counts it.
TEST(EventQueueTest, DestroyedLineDropsItsItems) {
  EventQueue q;
  std::vector<uint64_t> log;
  LineLog sink{&log};
  int plain = 0;
  {
    TestLine line(&q, &sink, Milliseconds(5));
    line.Push(1);
    line.Push(2);
    q.Schedule(Milliseconds(10), [&plain] { ++plain; });
    EXPECT_EQ(q.pending(), 2u);
  }
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(plain, 1);
  EXPECT_EQ(q.executed(), 1u);
}

// Differential check with delay lines: several lines of different delays
// fed at random, mixed with random plain events, cancels and partial runs,
// against the same ordered-map reference (a line item is a reference entry
// at push time + delay). Deliveries are pushed from inside plain events and
// from inside other lines' deliveries too, as packets and ACKs are.
TEST(EventQueueTest, RandomizedDifferentialWithDelayLines) {
  EventQueue q;
  ReferenceQueue reference;
  std::map<uint64_t, ReferenceQueue::Key> live;  // cancel handle -> key
  std::vector<uint64_t> executed_queue;
  Rng rng(20261019);

  // Line i forwards every third item it delivers to line (i + 1) % kLines.
  constexpr int kLines = 4;
  struct Forwarder {
    void Deliver(const uint64_t& label) {
      executed->push_back(label);
      if (label % 3 == 0) {
        forward(label + 1'000'000);
      }
    }
    std::vector<uint64_t>* executed;
    std::function<void(uint64_t)> forward;
  };
  using ForwardLine = DelayLine<uint64_t, Forwarder, &Forwarder::Deliver>;
  const TimeNs delays[kLines] = {0, Microseconds(700), Milliseconds(5), Milliseconds(15)};
  std::vector<Forwarder> forwarders(kLines);
  std::vector<std::unique_ptr<ForwardLine>> lines;
  for (int i = 0; i < kLines; ++i) {
    lines.push_back(std::make_unique<ForwardLine>(&q, &forwarders[i], delays[i]));
  }
  const auto push = [&](int line, uint64_t label) {
    reference.Insert(q.now() + delays[line], label);
    lines[line]->Push(label);
  };
  for (int i = 0; i < kLines; ++i) {
    forwarders[i].executed = &executed_queue;
    forwarders[i].forward = [&push, i](uint64_t label) { push((i + 1) % kLines, label); };
  }

  for (int step = 0; step < 20'000; ++step) {
    const uint64_t label = static_cast<uint64_t>(step);
    const double roll = rng.Uniform();
    if (roll < 0.30) {
      push(static_cast<int>(rng.UniformInt(0, kLines - 1)), label);
    } else if (roll < 0.55) {
      // A plain event due within a line delay, some at exactly a line's
      // delivery time; a few of them push into a line themselves.
      const TimeNs when = q.now() + (rng.Bernoulli(0.3) ? delays[rng.UniformInt(0, kLines - 1)]
                                                        : rng.UniformInt(0, Milliseconds(20)));
      const int target = rng.Bernoulli(0.2) ? static_cast<int>(rng.UniformInt(0, kLines - 1)) : -1;
      const uint64_t id = q.Schedule(when, [&executed_queue, &push, label, target] {
        executed_queue.push_back(label);
        if (target >= 0) {
          push(target, label + 2'000'000);
        }
      });
      live[id] = reference.Insert(when, label);
    } else if (roll < 0.70 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      q.Cancel(it->first);
      reference.pending.erase(it->second);
      live.erase(it);
    } else {
      const TimeNs until = q.now() + rng.UniformInt(0, Milliseconds(8));
      q.RunUntil(until);
      reference.RunUntil(until);
      for (auto it = live.begin(); it != live.end();) {
        it = reference.pending.count(it->second) == 0 ? live.erase(it) : std::next(it);
      }
      ASSERT_EQ(q.now(), reference.now);
      ASSERT_EQ(executed_queue, reference.executed);
      ASSERT_EQ(q.executed(), reference.executed.size());
    }
  }
  q.RunAll();
  reference.RunUntil(std::numeric_limits<TimeNs>::max());
  EXPECT_EQ(executed_queue, reference.executed);
  EXPECT_EQ(q.executed(), reference.executed.size());
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace astraea
