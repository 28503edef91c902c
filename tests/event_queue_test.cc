#include <gtest/gtest.h>

#include <chrono>
#include <deque>
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

// Closure timer for the tests: the queue fires only owner-held timers, so
// each test closure gets a timer of its own.
class FnTimer final : public EventQueue::TimerBase {
 public:
  FnTimer(EventQueue* q, std::function<void()> fn) : TimerBase(q), fn_(std::move(fn)) {}

 private:
  void Fire() override { fn_(); }

  std::function<void()> fn_;
};

// Owns the tests' closure timers: Schedule() arms a fresh one and returns it
// for re-arming. Declared after its queue, so the timers go first.
class Closures {
 public:
  explicit Closures(EventQueue* q) : q_(q) {}

  FnTimer& Schedule(TimeNs when, std::function<void()> fn) {
    FnTimer& timer = timers_.emplace_back(q_, std::move(fn));
    timer.Arm(when);
    return timer;
  }
  FnTimer& ScheduleAfter(TimeNs delay, std::function<void()> fn) {
    return Schedule(q_->now() + delay, std::move(fn));
  }

 private:
  EventQueue* q_;
  std::deque<FnTimer> timers_;  // stable addresses
};

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue q;
  Closures c(&q);
  std::vector<int> order;
  c.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  c.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  c.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Milliseconds(30));
}

TEST(EventQueueTest, TiesBreakFifo) {
  EventQueue q;
  Closures c(&q);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    c.Schedule(Milliseconds(10), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  Closures c(&q);
  int fired = 0;
  c.Schedule(Milliseconds(10), [&] { ++fired; });
  c.Schedule(Milliseconds(20), [&] { ++fired; });
  q.RunUntil(Milliseconds(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Milliseconds(15));
  q.RunUntil(Milliseconds(25));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  Closures c(&q);
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      c.ScheduleAfter(Milliseconds(1), recurse);
    }
  };
  c.Schedule(0, recurse);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), Milliseconds(4));
}

// A timer re-arms itself from its own Fire(), as the sender's MTP clock does.
struct Ticker {
  explicit Ticker(EventQueue* events) : q(events), timer(events, this) {}
  void Tick() {
    ticks.push_back(q->now());
    if (ticks.size() < 4) {
      timer.Arm(q->now() + Milliseconds(30));
    }
  }
  EventQueue* q;
  Timer<Ticker, &Ticker::Tick> timer;
  std::vector<TimeNs> ticks;
};

TEST(EventQueueTest, MemberTimerCallsItsOwnerAndRearmsFromFire) {
  EventQueue q;
  Ticker ticker(&q);
  EXPECT_FALSE(ticker.timer.pending());
  ticker.timer.Arm(Milliseconds(30));
  EXPECT_TRUE(ticker.timer.pending());
  EXPECT_EQ(ticker.timer.when(), Milliseconds(30));
  q.RunAll();
  EXPECT_EQ(ticker.ticks, (std::vector<TimeNs>{Milliseconds(30), Milliseconds(60),
                                               Milliseconds(90), Milliseconds(120)}));
  EXPECT_FALSE(ticker.timer.pending());
  EXPECT_EQ(q.executed(), 4u);
  EXPECT_EQ(q.timer_count(), 1u);
}

// Re-arming a pending timer moves it: it fires once, at its last arm.
TEST(EventQueueTest, ReArmFiresOnceAtLastArm) {
  EventQueue q;
  Closures c(&q);
  std::vector<TimeNs> fired_at;
  FnTimer& moved = c.Schedule(Milliseconds(10), [&] { fired_at.push_back(q.now()); });
  c.Schedule(Milliseconds(20), [&] { fired_at.push_back(q.now()); });
  moved.Arm(Milliseconds(30));
  EXPECT_EQ(q.pending(), 2u);
  q.RunAll();
  EXPECT_EQ(fired_at, (std::vector<TimeNs>{Milliseconds(20), Milliseconds(30)}));
}

TEST(EventQueueTest, ExecutedCountsOnlyRunEvents) {
  EventQueue q;
  Closures c(&q);
  c.Schedule(Milliseconds(1), [] {});
  FnTimer& moved = c.Schedule(Milliseconds(2), [] {});
  moved.Arm(Milliseconds(3));  // the 2 ms entry turns dead and never runs
  q.RunAll();
  EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueueTest, RunUntilLandsOnBoundaryWhenDrainedEarly) {
  EventQueue q;
  Closures c(&q);
  int fired = 0;
  c.Schedule(Milliseconds(10), [&] { ++fired; });
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
  Closures c(&q);
  std::vector<std::pair<TimeNs, int>> order;
  constexpr int kEvents = 2000;
  for (int i = 0; i < kEvents; ++i) {
    const TimeNs when = Milliseconds((i * 7919) % 50);  // 50 ticks, 40 duplicates each
    c.Schedule(when, [&order, when, i] { order.emplace_back(when, i); });
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
  Closures c(&q);
  std::vector<uint64_t> order;
  std::vector<TimeNs> whens;
  uint64_t x = 42;
  for (int i = 0; i < 500; ++i) {
    // Log-uniform-ish skews: 1us .. ~2.3 hours.
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const TimeNs when = Microseconds(1) << ((x >> 59));  // 1us * 2^[0,31]
    whens.push_back(when);
    c.Schedule(when, [&order, i] { order.push_back(static_cast<uint64_t>(i)); });
  }
  q.RunAll();
  ASSERT_EQ(order.size(), 500u);
  for (size_t i = 1; i < order.size(); ++i) {
    const TimeNs a = whens[order[i - 1]];
    const TimeNs b = whens[order[i]];
    ASSERT_TRUE(a < b || (a == b && order[i - 1] < order[i]));
  }
}

// A re-armed timer's earlier entry stays in the heap but never fires: not
// when it reaches the top before the new one (re-armed later), not after it
// (re-armed earlier), and not once the timer has fired and been re-armed
// again.
TEST(EventQueueTest, ReArmedTimerNeverFiresItsStaleEntry) {
  EventQueue q;
  Closures c(&q);
  std::vector<TimeNs> fired_at;
  FnTimer& timer = c.Schedule(Milliseconds(10), [&] { fired_at.push_back(q.now()); });
  timer.Arm(Milliseconds(20));  // later: the 10 ms entry turns stale
  q.RunUntil(Milliseconds(15));
  EXPECT_TRUE(fired_at.empty());
  EXPECT_TRUE(timer.pending());
  q.RunUntil(Milliseconds(20));
  EXPECT_EQ(fired_at, (std::vector<TimeNs>{Milliseconds(20)}));
  EXPECT_FALSE(timer.pending());

  timer.Arm(Milliseconds(40));
  timer.Arm(Milliseconds(30));  // earlier: the 40 ms entry turns stale
  q.RunAll();
  EXPECT_EQ(fired_at, (std::vector<TimeNs>{Milliseconds(20), Milliseconds(30)}));
  EXPECT_EQ(q.now(), Milliseconds(30));  // the stale 40 ms entry ran nothing
  EXPECT_EQ(q.executed(), 2u);
  EXPECT_EQ(q.pending(), 0u);
}

// Regression for the seed scheduler's O(n) cancel scan: 100k timers that are
// each armed and then re-armed (the per-ACK RTO re-arm pattern). Linear-scan
// cancellation made this quadratic (~10^10 steps); a re-arm is O(log n) and
// keeps it well under the generous wall-clock bound. The executed-events
// counter pins the exact amount of work done.
TEST(EventQueueTest, HundredThousandTimerChurnIsSubQuadratic) {
  constexpr size_t kTimers = 100'000;
  EventQueue q;
  Closures c(&q);
  const auto start = std::chrono::steady_clock::now();
  std::vector<FnTimer*> timers(kTimers);
  uint64_t fired = 0;
  uint64_t fired_early = 0;
  // Arm and re-arm every timer; only the last arm fires.
  for (size_t i = 0; i < kTimers; ++i) {
    timers[i] = &c.Schedule(Milliseconds(100) + static_cast<TimeNs>(i), [&] {
      ++fired;
      fired_early += q.now() < Milliseconds(200) ? 1 : 0;
    });
  }
  for (size_t i = 0; i < kTimers; ++i) {
    timers[i]->Arm(Milliseconds(200) + static_cast<TimeNs>(i));
  }
  EXPECT_EQ(q.pending(), kTimers);
  q.RunAll();
  EXPECT_EQ(fired, kTimers);
  EXPECT_EQ(fired_early, 0u);
  EXPECT_EQ(q.executed(), kTimers);  // stale entries never dispatched
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // ~300k O(log n) operations: milliseconds in practice. The bound is two
  // orders of magnitude slack for CI noise, yet another two-plus below
  // quadratic.
  EXPECT_LT(elapsed, 10.0);
}

// An event that throws leaves the queue consistent: it is not run again, and
// the events behind it still run in order.
TEST(EventQueueTest, ThrowingEventIsNotRunAgain) {
  EventQueue q;
  Closures c(&q);
  std::vector<int> order;
  c.Schedule(Milliseconds(1), [&order] {
    order.push_back(1);
    throw std::runtime_error("event failed");
  });
  c.Schedule(Milliseconds(2), [&order] { order.push_back(2); });
  EXPECT_THROW(q.RunAll(), std::runtime_error);
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 0u);
}

// Reference scheduler for the differential tests: a std::map executing the
// same (when, insertion-order) total order. It keys ties on an insertion
// counter — the queue's documented FIFO tie-break. Every Arm() and every
// line Push() takes the next counter value, as each takes the next seq from
// the queue. A fired event is logged as (label, time).
struct ReferenceQueue {
  using Key = std::pair<TimeNs, uint64_t>;  // (when, insertion counter)
  using Fired = std::pair<uint64_t, TimeNs>;  // (label, when)

  Key Insert(TimeNs when, uint64_t label) {
    const Key key{when, insertions++};
    pending.emplace(key, label);
    return key;
  }

  void RunUntil(TimeNs until) {
    while (!pending.empty() && pending.begin()->first.first <= until) {
      const auto it = pending.begin();
      now = it->first.first;
      executed.emplace_back(it->second, now);
      pending.erase(it);
    }
    now = std::max(now, until);
  }

  std::map<Key, uint64_t> pending;  // -> step label
  std::vector<Fired> executed;
  TimeNs now = 0;
  uint64_t insertions = 0;
};

// A pending closure timer of a differential test and its reference key.
struct LiveTimer {
  FnTimer* timer;
  ReferenceQueue::Key key;
};

// Re-arms a pseudo-random pending timer up to 40 ms from now — earlier or
// later than its current arm — in the queue and in the reference. It must
// then fire once, at its last armed (when, seq).
void ReArmRandomTimer(EventQueue& q, ReferenceQueue& reference,
                      std::map<uint64_t, LiveTimer>& live, Rng& rng) {
  auto it = live.begin();
  std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
  const TimeNs when = q.now() + rng.UniformInt(0, Milliseconds(40));
  it->second.timer->Arm(when);
  reference.pending.erase(it->second.key);
  it->second.key = reference.Insert(when, it->first);
}

// Drops the timers the reference has fired, so `live` only holds genuinely
// pending ones.
void DropFired(const ReferenceQueue& reference, std::map<uint64_t, LiveTimer>& live) {
  for (auto it = live.begin(); it != live.end();) {
    it = reference.pending.count(it->second.key) == 0 ? live.erase(it) : std::next(it);
  }
}

// Differential check: a random schedule/re-arm/run workload against the
// ordered-map reference.
TEST(EventQueueTest, RandomizedDifferentialAgainstOrderedMapReference) {
  EventQueue q;
  Closures c(&q);
  ReferenceQueue reference;
  std::map<uint64_t, LiveTimer> live;  // label -> pending timer
  std::vector<ReferenceQueue::Fired> executed_queue;
  Rng rng(20260808);

  for (int step = 0; step < 20'000; ++step) {
    const uint64_t label = static_cast<uint64_t>(step);
    const double roll = rng.Uniform();
    if (roll < 0.55) {
      const TimeNs when = q.now() + rng.UniformInt(0, Milliseconds(40));
      FnTimer& timer = c.Schedule(
          when, [&executed_queue, &q, label] { executed_queue.emplace_back(label, q.now()); });
      live[label] = LiveTimer{&timer, reference.Insert(when, label)};
    } else if (roll < 0.75 && !live.empty()) {
      ReArmRandomTimer(q, reference, live, rng);
    } else {
      const TimeNs until = q.now() + rng.UniformInt(0, Milliseconds(10));
      q.RunUntil(until);
      reference.RunUntil(until);
      DropFired(reference, live);
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
void SchedulePlain(Closures& c, std::vector<uint64_t>* log) {
  c.Schedule(Milliseconds(10), [log] { log->push_back(kPlain); });
}

TEST(EventQueueTest, LineItemAndPlainEventAtSameWhenFollowReservedSeq) {
  for (const bool plain_first : {true, false}) {
    EventQueue q;
    Closures c(&q);
    std::vector<uint64_t> log;
    LineLog sink{&log};
    TestLine line(&q, &sink, Milliseconds(10));
    if (plain_first) {
      SchedulePlain(c, &log);
      line.Push(1);
    } else {
      line.Push(1);
      SchedulePlain(c, &log);
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
    Closures c(&q);
    std::vector<uint64_t> log;
    LineLog sink{&log};
    TestLine line(&q, &sink, Milliseconds(10));
    line.Push(1);
    if (plain_between) {
      SchedulePlain(c, &log);
      line.Push(2);
    } else {
      line.Push(2);
      SchedulePlain(c, &log);
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
  Closures c(&q);
  std::vector<uint64_t> log;
  LineLog sink{&log};
  TestLine line(&q, &sink, Milliseconds(5));
  for (uint64_t i = 0; i < 40; ++i) {
    line.Push(i);
  }
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(line.size(), 40u);
  c.Schedule(Milliseconds(1), [] {});
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

// A line destroyed with items in flight drops its head entry, and a plain
// timer destroyed while armed drops its entry: nothing of either runs
// afterwards and pending() no longer counts them.
TEST(EventQueueTest, DestroyedLineDropsItsItems) {
  EventQueue q;
  Closures c(&q);
  std::vector<uint64_t> log;
  LineLog sink{&log};
  int plain = 0;
  int destroyed_fired = 0;
  c.Schedule(Milliseconds(10), [&plain] { ++plain; });
  {
    TestLine line(&q, &sink, Milliseconds(5));
    line.Push(1);
    line.Push(2);
    FnTimer destroyed(&q, [&destroyed_fired] { ++destroyed_fired; });
    destroyed.Arm(Milliseconds(7));
    EXPECT_EQ(q.pending(), 3u);
  }
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(destroyed_fired, 0);
  EXPECT_EQ(plain, 1);
  EXPECT_EQ(q.executed(), 1u);
}

// Differential check with delay lines: several lines of different delays
// fed at random, mixed with random plain events, re-arms and partial runs,
// against the same ordered-map reference (a line item is a reference entry
// at push time + delay). Deliveries are pushed from inside plain events and
// from inside other lines' deliveries too, as packets and ACKs are.
TEST(EventQueueTest, RandomizedDifferentialWithDelayLines) {
  EventQueue q;
  Closures c(&q);
  ReferenceQueue reference;
  std::map<uint64_t, LiveTimer> live;  // label -> pending timer
  std::vector<ReferenceQueue::Fired> executed_queue;
  Rng rng(20261019);

  // Line i forwards every third item it delivers to line (i + 1) % kLines.
  constexpr int kLines = 4;
  struct Forwarder {
    void Deliver(const uint64_t& label) {
      executed->emplace_back(label, q->now());
      if (label % 3 == 0) {
        forward(label + 1'000'000);
      }
    }
    EventQueue* q;
    std::vector<ReferenceQueue::Fired>* executed;
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
    forwarders[i].q = &q;
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
      FnTimer& timer = c.Schedule(when, [&executed_queue, &push, &q, label, target] {
        executed_queue.emplace_back(label, q.now());
        if (target >= 0) {
          push(target, label + 2'000'000);
        }
      });
      live[label] = LiveTimer{&timer, reference.Insert(when, label)};
    } else if (roll < 0.70 && !live.empty()) {
      ReArmRandomTimer(q, reference, live, rng);
    } else {
      const TimeNs until = q.now() + rng.UniformInt(0, Milliseconds(8));
      q.RunUntil(until);
      reference.RunUntil(until);
      DropFired(reference, live);
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
