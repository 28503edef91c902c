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

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

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

  TimeNs now() const { return now_; }
  size_t pending() const { return live_; }
  uint64_t executed() const { return executed_; }

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
  static constexpr size_t kChunkShift = 12;  // 4096 slots per slab
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
    uint32_t slot;
  };

  Slot& slot(uint32_t idx) { return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)]; }

  uint32_t AcquireSlot();
  void FreeSlot(uint32_t idx);

  // Drops every cancelled entry from the heap and frees its slot.
  void Compact();

  // Pops the minimal (when, seq) live entry with when <= limit into `out`,
  // freeing cancelled entries on the way. False when none qualifies.
  bool PopReady(TimeNs limit, Entry* out);

  void Dispatch(const Entry& entry);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t free_head_ = kNil;
  uint32_t allocated_ = 0;  // high-water slot count

  std::vector<Entry> heap_;  // includes cancelled entries not yet popped

  size_t live_ = 0;  // scheduled, not cancelled, not yet executed
  size_t cancelled_pending_ = 0;

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t recycled_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace astraea

#endif  // SRC_SIM_EVENT_QUEUE_H_
