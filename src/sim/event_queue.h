// Discrete-event scheduler: a binary heap of timer entries.
//
// Every pending event is one heap entry {when, seq, timer id}, and every
// event is the firing of an owner-held timer object. Entries execute in
// nondecreasing time order; the monotonically increasing sequence number
// breaks ties FIFO, which makes whole-simulation behaviour deterministic for
// a given seed. That total order is the contract the golden traces pin down —
// any correct scheduler implementation must dispatch in exactly this order.
//
// Implementation (see DESIGN.md §11.1 for the full layout):
//  * A timer (TimerBase, or the Timer<Owner, &Owner::Fn> member template
//    below) holds at most one pending entry. It registers with the queue on
//    its first arm and keeps the seq it was last armed with; Arm() on a
//    pending timer re-arms it in place.
//  * An entry is dead when its timer is gone (destroyed; it detached from
//    the queue) or has been re-armed since (its armed seq no longer matches
//    the entry's). A dead entry stays in the heap and is dropped when it
//    reaches the top, or earlier by a compaction once dead entries outnumber
//    live ones two to one.
//  * Pending entries are a std::vector binary heap ordered by (when, seq).
//    Since seq is unique the order is total, so the heap dispatches exactly
//    the FIFO-tie-broken order.
//  * A running timer's entry stays on top of the heap until the timer arms
//    its first entry, which takes its place with one sift-down instead of a
//    pop and a push.
//  * Constant-delay pipes (link-to-link propagation; a flow's last-link
//    propagation plus its ACK return) are DelayLines (see delay_line.h):
//    timers over a FIFO ring whose items each reserve their seq on entry; the
//    line arms itself for its head item with that reserved seq. Within a
//    line `when` and the reserved seq both only grow, so the head is the
//    line's (when, seq) minimum and the dispatch order is exactly that of one
//    heap entry per item.
//
// Timers must not outlive their queue: an owner declares its EventQueue
// before (or holds it longer than) the components whose timers it serves.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/logging.h"
#include "src/util/time.h"

namespace astraea {

class EventQueue {
 public:
  // Base of every event source. The queue calls Fire() when the timer's
  // entry is due; by then the timer is no longer pending, so Fire() may arm
  // it again. A timer destroyed while pending detaches: its entry is then
  // dropped unexecuted.
  class TimerBase {
   public:
    TimerBase(const TimerBase&) = delete;
    TimerBase& operator=(const TimerBase&) = delete;

    // Arms the timer at absolute time `when` (>= now) with a fresh FIFO
    // seq. A pending timer is re-armed: its earlier entry turns dead.
    void Arm(TimeNs when) { ArmReserved(when, events_->ReserveSeq()); }

    bool pending() const { return armed_seq_ != kNotArmed; }
    // The time the timer is armed for; meaningful only while pending().
    TimeNs when() const { return when_; }

   protected:
    explicit TimerBase(EventQueue* events) : events_(events) {}
    virtual ~TimerBase();

    virtual void Fire() = 0;

    // Arm() with a seq reserved earlier by ReserveSeq() (DelayLine's head).
    void ArmReserved(TimeNs when, uint64_t seq);

    EventQueue* events_;

   private:
    friend class EventQueue;
    static constexpr uint64_t kNotArmed = ~uint64_t{0};

    uint64_t armed_seq_ = kNotArmed;  // seq of the live entry, if pending
    TimeNs when_ = 0;
    uint32_t id_ = kNil;  // index in the queue's timer table once registered
  };

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Runs events until the queue is empty or the next event is after `until`.
  // The clock lands exactly on `until` when the queue drains early.
  void RunUntil(TimeNs until);

  // Runs until the queue is fully drained (the clock stays on the last event).
  void RunAll();

  // Takes the next FIFO tie-break number. Arm() takes one; a line item
  // reserves one when it enters its line and keeps it until its line arms
  // for it.
  uint64_t ReserveSeq() { return next_seq_++; }

  TimeNs now() const { return now_; }
  // Live heap entries: armed timers not yet fired, counting one head per
  // non-empty line (items behind a head are not counted).
  size_t pending() const { return live_; }
  // Events run, counting each line item delivered as one event.
  uint64_t executed() const { return executed_; }

  // Timers registered with this queue (each registers on its first arm),
  // for the sim.sched.timers gauge.
  size_t timer_count() const { return timers_.size(); }

  // Largest heap size (dead entries included) and largest line ring
  // occupancy seen, for the sim.sched.heap_max / sim.lines.items_max gauges.
  size_t heap_max() const { return heap_max_; }
  size_t line_items_max() const { return line_items_max_; }
  void NoteLineItems(size_t items) { line_items_max_ = std::max(line_items_max_, items); }

  // Kept for perfbench/workload_sim.cc (pool.event_slots): the timer count.
  size_t slot_capacity() const { return timer_count(); }
  // Kept for perfbench/workload_sim.cc (sched.rebuilds): counts compactions.
  uint64_t calendar_rebuilds() const { return compactions_; }
  // Kept for perfbench/workload_sim.cc (sched.rotations): a heap never rotates.
  uint64_t calendar_rotations() const { return 0; }
  // Kept for perfbench/workload_sim.cc (sched.buckets): the heap is one bucket.
  size_t bucket_count() const { return 1; }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Entry {
    TimeNs when;
    uint64_t seq;  // FIFO tie-break, globally increasing
    uint32_t timer;  // index in timers_
  };

  // Registers `timer` on its first arm.
  void Register(TimerBase* timer);
  // A destroyed timer's pending entry turns dead.
  void Detach(TimerBase* timer);
  // Marks a pending timer's entry dead before it is re-armed.
  void Disarm(TimerBase* timer);

  // Schedule-time checks (causality) and upkeep (compaction) for an entry
  // at `when`; Push() then adds it as a live entry, in place of the running
  // timer's spent entry if that is still on top. The entry travels as
  // fields, in registers: a by-value Entry is passed in memory, and the
  // callee's 16-byte reload of the caller's scalar stores stalls.
  void BeforePush(TimeNs when);
  void Push(TimeNs when, uint64_t seq, uint32_t timer);
  // The entry of a destroyed timer, or of one re-armed since.
  bool IsDead(const Entry& entry) const {
    const TimerBase* timer = timers_[entry.timer];
    return timer == nullptr || timer->armed_seq_ != entry.seq;
  }

  // Drops every dead entry from the heap.
  void Compact();

  void PopTop();
  // Overwrites the top with an entry that fires no earlier, then restores
  // the heap order.
  void ReplaceTop(TimeNs when, uint64_t seq, uint32_t timer);
  // Pops the running timer's spent entry unless Push() already replaced it.
  void DropSpentTop();

  // Dispatches the minimal (when, seq) live entry if its when <= limit,
  // dropping dead entries on the way. False when none qualifies.
  bool DispatchNext(TimeNs limit);

  // Fires `entry`'s timer; the entry is the heap's top and leaves the heap.
  void Dispatch(const Entry& entry);

  std::vector<Entry> heap_;  // includes dead entries not yet popped
  std::vector<TimerBase*> timers_;  // by timer id; null once the timer is destroyed
  // True while the running timer's spent entry is still on top of the heap.
  bool top_spent_ = false;

  size_t live_ = 0;  // armed, not re-armed since, not yet fired
  size_t dead_pending_ = 0;

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t compactions_ = 0;
  size_t heap_max_ = 0;
  size_t line_items_max_ = 0;
};

// A timer member that calls (owner->*kFire)() when it fires, as DelayLine
// delivers to (owner->*kDeliver)(item):
//   Timer<Sender, &Sender::OnPaceTimer> pace_timer_{events, this};
template <typename Owner, void (Owner::*kFire)()>
class Timer final : public EventQueue::TimerBase {
 public:
  Timer(EventQueue* events, Owner* owner) : TimerBase(events), owner_(owner) {}

 private:
  void Fire() override { (owner_->*kFire)(); }

  Owner* owner_;
};

}  // namespace astraea

#endif  // SRC_SIM_EVENT_QUEUE_H_
