// DelayLine: a FIFO pipe in which every item waits the same constant delay —
// a link's propagation (Link) or an uncongested ACK return path (Receiver).
//
// A line is one EventQueue timer over a power-of-two ring of (when, seq,
// item): the timer is armed for the head item only, so a pipe with n items in
// flight costs one heap entry instead of n. Each item reserves its FIFO seq
// from the queue when it enters, and the line arms for it later with that
// reserved seq. Since `when` = entry time + delay and the reserved seq both
// only grow along the ring, the head is the line's (when, seq) minimum and
// the queue dispatches items in exactly the order one heap entry per item
// would. Each delivery counts as one executed event.
//
// The ring allocates on the first Push, not at construction.

#ifndef SRC_SIM_DELAY_LINE_H_
#define SRC_SIM_DELAY_LINE_H_

#include <cstdint>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/util/time.h"

namespace astraea {

// Delivers each item to (owner->*kDeliver)(item) `delay` after its Push.
template <typename T, typename Owner, void (Owner::*kDeliver)(const T&)>
class DelayLine final : private EventQueue::TimerBase {
 public:
  DelayLine(EventQueue* events, Owner* owner, TimeNs delay)
      : TimerBase(events), owner_(owner), delay_(delay) {}

  void Push(const T& item) {
    const Item entry{events_->now() + delay_, events_->ReserveSeq(), item};
    if (size_ == ring_.size()) {
      Grow();
    }
    ring_[(head_ + size_) & (ring_.size() - 1)] = entry;
    if (++size_ == 1) {
      ArmReserved(entry.when, entry.seq);
    }
    events_->NoteLineItems(size_);
  }

  // Items in flight.
  size_t size() const { return size_; }

 private:
  static constexpr size_t kInitialCapacity = 16;

  struct Item {
    TimeNs when;
    uint64_t seq;
    T value;
  };

  // Delivers the head item and arms for the next one.
  void Fire() override {
    const T value = ring_[head_].value;
    head_ = (head_ + 1) & (ring_.size() - 1);
    if (--size_ > 0) {
      ArmReserved(ring_[head_].when, ring_[head_].seq);
    }
    (owner_->*kDeliver)(value);
  }

  // Doubles the ring (first call: kInitialCapacity), unwrapping it in order.
  void Grow() {
    std::vector<Item> bigger(ring_.empty() ? kInitialCapacity : 2 * ring_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  Owner* owner_;
  TimeNs delay_;
  std::vector<Item> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace astraea

#endif  // SRC_SIM_DELAY_LINE_H_
