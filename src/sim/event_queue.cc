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

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNil) {
    const uint32_t idx = free_head_;
    free_head_ = slot(idx).next;
    ++recycled_;
    return idx;
  }
  if ((size_t{allocated_} >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return allocated_++;
}

void EventQueue::FreeSlot(uint32_t idx) {
  Slot& s = slot(idx);
  ++s.gen;  // stale handles (Cancel after fire, double cancel) stop matching
  s.cancelled = false;
  s.fn = Callback();  // release captured state promptly
  s.next = free_head_;
  free_head_ = idx;
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

  // Garbage-collect when lazily-cancelled entries dominate the live ones.
  if (cancelled_pending_ > 64 && cancelled_pending_ > 2 * live_) {
    Compact();
  }
}

void EventQueue::Push(Entry entry) {
  ++live_;
  if (top_spent_) {
    // The first entry the running event schedules takes the place of its
    // spent entry on top: one sift-down instead of a pop and a push.
    top_spent_ = false;
    ReplaceTop(entry);
    return;
  }
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), FiresLater());
  heap_max_ = std::max(heap_max_, heap_.size());
}

uint64_t EventQueue::Schedule(TimeNs when, Callback fn) {
  BeforePush(when);
  const uint32_t idx = AcquireSlot();
  Slot& s = slot(idx);
  s.fn = std::move(fn);
  Push(Entry{when, next_seq_++, idx});
  return (static_cast<uint64_t>(s.gen) << 32) | idx;
}

EventQueue::Line::~Line() {
  if (id_ != kNil) {
    events_->DetachLine(this);
  }
}

void EventQueue::Line::ScheduleHead(TimeNs when, uint64_t seq) {
  if (id_ == kNil) {
    id_ = static_cast<uint32_t>(events_->lines_.size());
    ASTRAEA_CHECK(id_ < kLineTag);
    events_->lines_.push_back(this);
  }
  events_->BeforePush(when);
  events_->Push(Entry{when, seq, kLineTag | id_});
  head_pending_ = true;
}

void EventQueue::DetachLine(Line* line) {
  lines_[line->id_] = nullptr;
  if (line->head_pending_) {  // its head entry turns dead, like a cancelled event
    --live_;
    ++cancelled_pending_;
  }
}

void EventQueue::FreeEntry(const Entry& entry) {
  if ((entry.slot & kLineTag) == 0) {
    FreeSlot(entry.slot);
  }
}

void EventQueue::Compact() {
  ++compactions_;
  const auto dead = [this](const Entry& e) {
    if (!IsDead(e)) {
      return false;
    }
    FreeEntry(e);
    return true;
  };
  // A spent entry on top is not dead: Dispatch still owns it.
  const auto first = heap_.begin() + (top_spent_ ? 1 : 0);
  heap_.erase(std::remove_if(first, heap_.end(), dead), heap_.end());
  cancelled_pending_ = 0;
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
    --cancelled_pending_;
    FreeEntry(top);
  }
  return false;
}

void EventQueue::Cancel(uint64_t handle) {
  const uint32_t idx = static_cast<uint32_t>(handle & 0xFFFFFFFFu);
  const uint32_t gen = static_cast<uint32_t>(handle >> 32);
  if (idx >= allocated_) {
    return;
  }
  Slot& s = slot(idx);
  if (s.gen != gen || s.cancelled) {
    return;  // stale handle: the event already ran, was cancelled, or the
             // slot was recycled for a newer event
  }
  s.cancelled = true;
  --live_;
  ++cancelled_pending_;
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
  // The spent entry stays on top while the event runs, for Push() to
  // overwrite. Whatever the event schedules fires after it (when >= now, a
  // fresh seq), so if the event schedules nothing it is still on top after.
  top_spent_ = true;
  try {
    if ((entry.slot & kLineTag) != 0) {
      Line* line = lines_[entry.slot & ~kLineTag];
      line->head_pending_ = false;
      line->DispatchHead();
    } else {
      // Move the closure out and free the slot *before* invoking: the
      // callback may schedule new events, which may legitimately recycle
      // this very slot.
      Callback fn = std::move(slot(entry.slot).fn);
      FreeSlot(entry.slot);
      fn();
    }
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
