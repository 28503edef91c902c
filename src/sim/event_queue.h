// Discrete-event scheduler: a binary heap over a slab-allocated event pool.
//
// Events are (time, sequence, closure) triples executed in nondecreasing time
// order; the monotonically increasing sequence number breaks ties FIFO, which
// makes whole-simulation behaviour deterministic for a given seed. That total
// order is the contract the golden traces pin down — any correct scheduler
// implementation must dispatch in exactly this order.
//
// Implementation (see DESIGN.md §11 for the full layout):
//  * Event slots live in chunked slabs recycled through a freelist, so a
//    schedule/dispatch pair costs index arithmetic — no allocation. Closures
//    are stored inline in the slot (InlineFunction), so no malloc either.
//  * Pending events are a std::vector binary heap of {when, seq, slot}
//    entries ordered by (when, seq). Since seq is unique the order is total,
//    so the heap dispatches exactly the FIFO-tie-broken order.
//  * Schedule() returns a generation-stamped handle; Cancel() is an O(1)
//    stamp check + flag write. The cancelled entry stays in the heap and is
//    freed when it reaches the top, or earlier by a compaction once cancelled
//    entries outnumber live ones two to one.
//  * A running event's entry stays on top of the heap until the event
//    schedules its first entry, which takes its place with one sift-down
//    instead of a pop and a push.
//  * Constant-delay pipes (link propagation, ACK return) are Lines (see
//    delay_line.h): a FIFO ring whose items each reserve their seq on entry
//    and of which only the head holds a heap entry. That entry is tagged with
//    the line's id instead of a slot, so it dispatches straight to the line
//    with no slot and no closure. Within a line `when` and the reserved seq
//    both only grow, so the head is the line's (when, seq) minimum and the
//    dispatch order is exactly that of one heap entry per item.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/inline_function.h"
#include "src/util/logging.h"
#include "src/util/time.h"

namespace astraea {

class EventQueue {
 public:
  using Callback = InlineFunction<48>;

  // Base of a constant-delay FIFO (DelayLine<T> in delay_line.h). The queue
  // calls DispatchHead() when the head's entry is due; the line pops its head,
  // schedules its next item with ScheduleHead() and delivers the item. A line
  // registers on its first ScheduleHead(), and one destroyed with items still
  // in it detaches: its pending head is then dropped unexecuted.
  class Line {
   public:
    Line(const Line&) = delete;
    Line& operator=(const Line&) = delete;

   protected:
    explicit Line(EventQueue* events) : events_(events) {}
    virtual ~Line();

    virtual void DispatchHead() = 0;

    // Puts the head in the heap at `when` with the seq it reserved on entry.
    void ScheduleHead(TimeNs when, uint64_t seq);

    EventQueue* events_;

   private:
    friend class EventQueue;
    uint32_t id_ = kNil;
    bool head_pending_ = false;  // the head's entry is in the heap
  };

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` at absolute time `when` (>= now). Returns a handle that can
  // be passed to Cancel().
  uint64_t Schedule(TimeNs when, Callback fn);
  uint64_t ScheduleAfter(TimeNs delay, Callback fn) { return Schedule(now_ + delay, std::move(fn)); }

  // O(1) cancel of a pending event. A handle whose event already ran (or was
  // already cancelled) is stale — its slot generation no longer matches — and
  // the call is a no-op, so cancelling twice or late is always safe.
  void Cancel(uint64_t handle);

  // Runs events until the queue is empty or the next event is after `until`.
  // The clock lands exactly on `until` when the queue drains early.
  void RunUntil(TimeNs until);

  // Runs until the queue is fully drained (the clock stays on the last event).
  void RunAll();

  // Takes the FIFO tie-break number the next Schedule() would get. A line
  // item reserves one when it enters its line and keeps it until its head
  // entry is scheduled.
  uint64_t ReserveSeq() { return next_seq_++; }

  TimeNs now() const { return now_; }
  // Live heap entries: scheduled events not yet run or cancelled, plus one
  // head per non-empty line (items behind a head are not counted).
  size_t pending() const { return live_; }
  // Events run, counting each line item delivered as one event.
  uint64_t executed() const { return executed_; }

  // Largest heap size (cancelled entries included) and largest line ring
  // occupancy seen, for the sim.sched.heap_max / sim.lines.items_max gauges.
  size_t heap_max() const { return heap_max_; }
  size_t line_items_max() const { return line_items_max_; }
  void NoteLineItems(size_t items) { line_items_max_ = std::max(line_items_max_, items); }

  // Pool statistics for the sim.pool.* metrics gauges.
  size_t slot_capacity() const { return allocated_; }
  uint64_t slots_recycled() const { return recycled_; }
  // Kept for perfbench/workload_sim.cc (sched.rebuilds): counts compactions.
  uint64_t calendar_rebuilds() const { return compactions_; }
  // Kept for perfbench/workload_sim.cc (sched.rotations): a heap never rotates.
  uint64_t calendar_rotations() const { return 0; }
  // Kept for perfbench/workload_sim.cc (sched.buckets): the heap is one bucket.
  size_t bucket_count() const { return 1; }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  // Entry::slot with this bit set names a line (low bits: its id), not a slot.
  static constexpr uint32_t kLineTag = 0x80000000u;
  static constexpr size_t kChunkShift = 8;  // 256 slots per slab
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  struct Slot {
    uint32_t next = kNil;  // freelist link
    uint32_t gen = 0;      // bumped on every free; stamps Cancel handles
    bool cancelled = false;
    Callback fn;
  };

  struct Entry {
    TimeNs when;
    uint64_t seq;  // FIFO tie-break, globally increasing
    uint32_t slot;  // slot index, or kLineTag | line id
  };

  Slot& slot(uint32_t idx) { return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)]; }

  uint32_t AcquireSlot();
  void FreeSlot(uint32_t idx);

  // Schedule-time checks (causality) and upkeep (compaction) for an entry
  // at `when`; Push() then adds it as a live entry, in place of the running
  // event's spent entry if that is still on top.
  void BeforePush(TimeNs when);
  void Push(Entry entry);
  // A cancelled event, or the head of a line destroyed before it ran.
  bool IsDead(const Entry& entry) {
    return (entry.slot & kLineTag) != 0 ? lines_[entry.slot & ~kLineTag] == nullptr
                                        : slot(entry.slot).cancelled;
  }
  void FreeEntry(const Entry& entry);

  void DetachLine(Line* line);

  // Drops every dead entry from the heap and frees its slot.
  void Compact();

  void PopTop();
  // Overwrites the top with an entry that fires no earlier, then restores
  // the heap order.
  void ReplaceTop(Entry entry);
  // Pops the running event's spent entry unless Push() already replaced it.
  void DropSpentTop();

  // Dispatches the minimal (when, seq) live entry if its when <= limit,
  // freeing dead entries on the way. False when none qualifies.
  bool DispatchNext(TimeNs limit);

  // Runs `entry`, which is the heap's top, and takes it off the heap.
  void Dispatch(const Entry& entry);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t free_head_ = kNil;
  uint32_t allocated_ = 0;  // high-water slot count

  std::vector<Entry> heap_;  // includes cancelled entries not yet popped
  std::vector<Line*> lines_;  // by line id; null once the line is destroyed
  // True while the running event's spent entry is still on top of the heap.
  bool top_spent_ = false;

  size_t live_ = 0;  // scheduled, not cancelled, not yet executed
  size_t cancelled_pending_ = 0;

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t recycled_ = 0;
  uint64_t compactions_ = 0;
  size_t heap_max_ = 0;
  size_t line_items_max_ = 0;
};

}  // namespace astraea

#endif  // SRC_SIM_EVENT_QUEUE_H_
