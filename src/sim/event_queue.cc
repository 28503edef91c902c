#include "src/sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/sim/invariants.h"

namespace astraea {

namespace {
// Heap comparator: std::*_heap keep the "largest" on top, so ordering by
// "fires later" puts the earliest (when, seq) at the front.
struct FiresLater {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
};
}  // namespace

EventQueue::TimerBase::~TimerBase() {
  if (id_ != kNil) {
    events_->Detach(this);
  }
}

void EventQueue::TimerBase::ArmReserved(TimeNs when, uint64_t seq) {
  EventQueue& q = *events_;
  if (id_ == kNil) {
    q.Register(this);
  } else if (pending()) {
    q.Disarm(this);
  }
  q.BeforePush(when);
  armed_seq_ = seq;
  when_ = when;
  q.Push(Entry{when, seq, id_});
}

void EventQueue::Register(TimerBase* timer) {
  timer->id_ = static_cast<uint32_t>(timers_.size());
  ASTRAEA_CHECK(timer->id_ != kNil);
  timers_.push_back(timer);
}

void EventQueue::Detach(TimerBase* timer) {
  timers_[timer->id_] = nullptr;
  if (timer->pending()) {
    --live_;
    ++dead_pending_;
  }
}

void EventQueue::Disarm(TimerBase* timer) {
  timer->armed_seq_ = TimerBase::kNotArmed;
  --live_;
  ++dead_pending_;
}

void EventQueue::BeforePush(TimeNs when) {
  // Causality: nothing may be scheduled in the past. With the invariant
  // checker on this is a reportable (and in fatal mode, throwable) violation;
  // the ASTRAEA_CHECK below stays as the unconditional backstop.
  if (when < now_ && invariants::Enabled()) {
    invariants::Report("event.schedule_in_past",
                       "event scheduled at " + std::to_string(when) + " ns with clock at " +
                           std::to_string(now_) + " ns");
  }
  ASTRAEA_CHECK(when >= now_);

  // Garbage-collect when dead entries dominate the live ones.
  if (dead_pending_ > 64 && dead_pending_ > 2 * live_) {
    Compact();
  }
}

void EventQueue::Push(Entry entry) {
  ++live_;
  if (top_spent_) {
    // The first entry the running timer arms takes the place of its spent
    // entry on top: one sift-down instead of a pop and a push.
    top_spent_ = false;
    ReplaceTop(entry);
    return;
  }
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), FiresLater());
  heap_max_ = std::max(heap_max_, heap_.size());
}

void EventQueue::Compact() {
  ++compactions_;
  const auto dead = [this](const Entry& e) { return IsDead(e); };
  // A spent entry on top is not dead: Dispatch still owns it.
  const auto first = heap_.begin() + (top_spent_ ? 1 : 0);
  heap_.erase(std::remove_if(first, heap_.end(), dead), heap_.end());
  dead_pending_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), FiresLater());
}

void EventQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater());
  heap_.pop_back();
}

void EventQueue::ReplaceTop(Entry entry) {
  // Sift the new top down; `entry` fires no earlier than the one it replaces.
  const FiresLater fires_later;
  const size_t n = heap_.size();
  size_t hole = 0;
  for (size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && fires_later(heap_[child], heap_[child + 1])) {
      ++child;
    }
    if (!fires_later(entry, heap_[child])) {
      break;
    }
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = entry;
}

bool EventQueue::DispatchNext(TimeNs limit) {
  while (!heap_.empty() && heap_.front().when <= limit) {
    const Entry top = heap_.front();
    if (!IsDead(top)) {
      Dispatch(top);
      return true;
    }
    PopTop();
    --dead_pending_;
  }
  return false;
}

void EventQueue::Dispatch(const Entry& entry) {
  // Monotone dispatch: the heap can only hand out nondecreasing times. A
  // violation here means the queue ordering itself is corrupt.
  if (entry.when < now_ && invariants::Enabled()) {
    invariants::Report("event.monotone_dispatch",
                       "dispatching event at " + std::to_string(entry.when) +
                           " ns after clock reached " + std::to_string(now_) + " ns");
  }
  now_ = entry.when;
  ++executed_;
  --live_;
  // The spent entry stays on top while the timer fires, for Push() to
  // overwrite. Whatever the timer arms fires after it (when >= now, a fresh
  // or later-reserved seq), so if it arms nothing it is still on top after.
  top_spent_ = true;
  TimerBase* timer = timers_[entry.timer];
  timer->armed_seq_ = TimerBase::kNotArmed;
  try {
    timer->Fire();
  } catch (...) {
    DropSpentTop();
    throw;
  }
  DropSpentTop();
}

void EventQueue::DropSpentTop() {
  if (top_spent_) {
    top_spent_ = false;
    PopTop();
  }
}

void EventQueue::RunUntil(TimeNs until) {
  while (DispatchNext(until)) {
  }
  now_ = std::max(now_, until);
}

void EventQueue::RunAll() {
  while (DispatchNext(std::numeric_limits<TimeNs>::max())) {
  }
}

}  // namespace astraea
