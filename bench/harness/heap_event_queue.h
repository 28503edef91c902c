// The repo's original event scheduler, preserved verbatim as the baseline for
// bench_sim_scale: a binary heap of std::function closures with lazy
// cancellation through a linear scan of the cancelled-id list. The in-tree
// EventQueue (src/sim/event_queue.h) keeps the heap but dispatches to
// owner-held timers that are re-armed in place; keeping the old
// implementation here lets every run of the bench measure the replacement
// against the real predecessor instead of a remembered number.
//
// Bench-only code: nothing under src/ may include this.

#ifndef BENCH_HARNESS_HEAP_EVENT_QUEUE_H_
#define BENCH_HARNESS_HEAP_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/util/logging.h"
#include "src/util/time.h"

namespace astraea {

class SeedHeapEventQueue {
 public:
  using Callback = std::function<void()>;

  uint64_t Schedule(TimeNs when, Callback fn) {
    ASTRAEA_CHECK(when >= now_);
    const uint64_t seq = next_seq_++;
    heap_.push(Entry{when, seq, std::move(fn)});
    return seq;
  }
  uint64_t ScheduleAfter(TimeNs delay, Callback fn) {
    return Schedule(now_ + delay, std::move(fn));
  }

  void Cancel(uint64_t id) {
    cancelled_.push_back(id);
    ++cancelled_count_;
  }

  void RunUntil(TimeNs until) {
    while (!heap_.empty() && heap_.top().when <= until) {
      Entry entry = std::move(const_cast<Entry&>(heap_.top()));
      heap_.pop();
      if (!cancelled_.empty() && IsCancelled(entry.seq)) {
        cancelled_.erase(std::remove(cancelled_.begin(), cancelled_.end(), entry.seq),
                         cancelled_.end());
        --cancelled_count_;
        continue;
      }
      now_ = entry.when;
      ++executed_;
      entry.fn();
    }
    now_ = std::max(now_, until);
  }

  void RunAll() {
    while (!heap_.empty()) {
      RunUntil(heap_.top().when);
    }
  }

  TimeNs now() const { return now_; }
  size_t pending() const { return heap_.size() - cancelled_count_; }
  uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    TimeNs when;
    uint64_t seq;
    Callback fn;
    bool operator>(const Entry& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  bool IsCancelled(uint64_t seq) const {
    return std::find(cancelled_.begin(), cancelled_.end(), seq) != cancelled_.end();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::vector<uint64_t> cancelled_;
  size_t cancelled_count_ = 0;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

}  // namespace astraea

#endif  // BENCH_HARNESS_HEAP_EVENT_QUEUE_H_
