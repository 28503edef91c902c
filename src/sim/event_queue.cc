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

uint64_t EventQueue::Schedule(TimeNs when, Callback fn) {
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

  const uint32_t idx = AcquireSlot();
  Slot& s = slot(idx);
  s.fn = std::move(fn);
  ++live_;
  heap_.push_back(Entry{when, next_seq_++, idx});
  std::push_heap(heap_.begin(), heap_.end(), FiresLater());
  return (static_cast<uint64_t>(s.gen) << 32) | idx;
}

void EventQueue::Compact() {
  ++compactions_;
  const auto cancelled = [this](const Entry& e) {
    if (!slot(e.slot).cancelled) {
      return false;
    }
    FreeSlot(e.slot);
    return true;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), cancelled), heap_.end());
  cancelled_pending_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), FiresLater());
}

bool EventQueue::PopReady(TimeNs limit, Entry* out) {
  while (!heap_.empty() && heap_.front().when <= limit) {
    *out = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater());
    heap_.pop_back();
    if (!slot(out->slot).cancelled) {
      return true;
    }
    --cancelled_pending_;
    FreeSlot(out->slot);
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
  // Move the closure out and free the slot *before* invoking: the callback
  // may schedule new events, which may legitimately recycle this very slot.
  Callback fn = std::move(slot(entry.slot).fn);
  FreeSlot(entry.slot);
  fn();
}

void EventQueue::RunUntil(TimeNs until) {
  Entry entry{};
  while (PopReady(until, &entry)) {
    Dispatch(entry);
  }
  now_ = std::max(now_, until);
}

void EventQueue::RunAll() {
  Entry entry{};
  while (PopReady(std::numeric_limits<TimeNs>::max(), &entry)) {
    Dispatch(entry);
  }
}

}  // namespace astraea
