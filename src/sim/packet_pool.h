// Slab-allocated packet pool: packets live in chunked slabs and travel the
// network as 8-byte generation-stamped references instead of 56-byte values.
//
// The seed simulator copied `Packet` by value into every closure and at every
// hop; at 10⁵–10⁶ flows those copies (and the std::function allocations they
// forced) dominate the run. With the pool, a send acquires a slot, every hop
// forwards the same PacketRef, and the terminal owner (receiver, AQM drop,
// wire loss) releases it back to the freelist — per-packet cost is index
// arithmetic.
//
// Ownership protocol: exactly one owner per live ref. Accept() transfers
// ownership to the sink; a sink that drops a packet (queue drop, wire loss,
// failpoint) must Release() it. The generation stamp turns use-after-release
// into an immediate ASTRAEA_CHECK failure instead of silent corruption, and
// PacketPool::live() makes leaks visible (`sim.pool.packets_live` gauge).

#ifndef SRC_SIM_PACKET_POOL_H_
#define SRC_SIM_PACKET_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/packet.h"
#include "src/util/logging.h"

namespace astraea {

class PacketPool {
 public:
  PacketPool() = default;

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Hands out a slot (recycled if possible). Fields hold whatever the
  // previous use left; the caller must initialize them.
  PacketRef Acquire() {
    uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = next_[idx];
      ++recycled_;
    } else {
      idx = static_cast<uint32_t>(next_.size());
      if ((static_cast<size_t>(idx) >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Packet[]>(kChunkSize));
      }
      next_.push_back(kNil);
      gen_.push_back(0);
    }
    ++live_;
    return PacketRef{idx, gen_[idx]};
  }

  // The Packet& stays valid (slabs never move) until Release().
  Packet& Get(PacketRef ref) {
    ASTRAEA_CHECK(ref.idx < next_.size() && gen_[ref.idx] == ref.gen);
    return chunks_[ref.idx >> kChunkShift][ref.idx & (kChunkSize - 1)];
  }
  const Packet& Get(PacketRef ref) const {
    ASTRAEA_CHECK(ref.idx < next_.size() && gen_[ref.idx] == ref.gen);
    return chunks_[ref.idx >> kChunkShift][ref.idx & (kChunkSize - 1)];
  }

  void Release(PacketRef ref) {
    ASTRAEA_CHECK(ref.idx < next_.size() && gen_[ref.idx] == ref.gen);
    ++gen_[ref.idx];  // stale refs stop matching
    next_[ref.idx] = free_head_;
    free_head_ = ref.idx;
    --live_;
  }

  size_t live() const { return live_; }
  size_t capacity() const { return next_.size(); }
  uint64_t recycled() const { return recycled_; }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  static constexpr size_t kChunkShift = 12;  // 4096 packets per slab
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  // Struct-of-arrays metadata: freelist links and generation stamps.
  std::vector<uint32_t> next_;
  std::vector<uint32_t> gen_;
  uint32_t free_head_ = kNil;
  size_t live_ = 0;
  uint64_t recycled_ = 0;
};

// Forwards `ref` to the next sink on its route. Called by links after the
// propagation delay elapses, for next sinks that decline AcceptAfter() (the
// next link of a multi-link path). Ownership moves to the next sink.
inline void ForwardToNextHop(PacketPool& pool, PacketRef ref) {
  Packet& pkt = pool.Get(ref);
  pkt.hop += 1;
  PacketSink* next = (*pkt.route)[pkt.hop];
  next->Accept(ref);
}

}  // namespace astraea

#endif  // SRC_SIM_PACKET_POOL_H_
