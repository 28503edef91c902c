// Packet representation and the hop-to-hop delivery interface.
//
// Packets are owned by a PacketPool (see packet_pool.h) and travel the
// network as PacketRef handles; the Packet struct itself never moves once
// acquired.

#ifndef SRC_SIM_PACKET_H_
#define SRC_SIM_PACKET_H_

#include <cstdint>
#include <vector>

#include "src/util/time.h"

namespace astraea {

class PacketSink;

// A route is an ordered list of sinks (links, then the receiving endpoint).
// The route object is owned by the flow and outlives all its packets.
using Route = std::vector<PacketSink*>;

struct Packet {
  int flow_id = 0;
  uint64_t seq = 0;           // per-flow data sequence number (in packets)
  uint32_t size_bytes = 0;
  TimeNs sent_time = 0;       // when the data packet left the sender
  const Route* route = nullptr;
  size_t hop = 0;             // index of the sink currently holding the packet
  // ECN: the sender sets ecn_capable (ECT) when its controller reacts to
  // marks; an EcnMarkingQueue sets ecn_ce (CE) instead of dropping, and the
  // receiver echoes CE back on the ACK. Pool slots are recycled, so the
  // sender must reinitialize both on every acquire.
  bool ecn_capable = false;
  bool ecn_ce = false;
};

// Generation-stamped handle to a pooled Packet. Copying the ref does not copy
// the packet; resolving a ref whose packet was released is a checked error.
struct PacketRef {
  uint32_t idx = 0xFFFFFFFFu;
  uint32_t gen = 0;
};

// Anything that can accept a packet: a link or a receiving endpoint.
// Accept() transfers ownership of the ref — the sink must eventually forward
// or release it.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void Accept(PacketRef ref) = 0;

  // The last hop, fused: a link that has just served `ref` offers it to the
  // next sink on its route `delay` (the link's propagation) before it would
  // arrive. A sink that carries that delay itself takes ownership and
  // returns true (the Receiver adds it to its ACK line's delay); the default
  // declines, and the link carries the packet on its wire line to Accept().
  virtual bool AcceptAfter(PacketRef /*ref*/, TimeNs /*delay*/) { return false; }
};

}  // namespace astraea

#endif  // SRC_SIM_PACKET_H_
