// A unidirectional bottleneck link: DropTail byte-capacity queue, a service
// process at a (possibly time-varying) rate, fixed propagation delay and
// optional iid non-congestive loss applied on the wire.

#ifndef SRC_SIM_LINK_H_
#define SRC_SIM_LINK_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/sim/delay_line.h"
#include "src/sim/event_queue.h"
#include "src/sim/packet.h"
#include "src/sim/packet_pool.h"
#include "src/sim/queue_disc.h"
#include "src/sim/rate_provider.h"
#include "src/sim/trace.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace astraea {

struct LinkConfig {
  std::string name = "link";
  RateBps rate = Mbps(100);                   // used when `trace` is null
  TimeNs propagation_delay = Milliseconds(10);  // one-way
  uint64_t buffer_bytes = 375'000;            // DropTail capacity (excl. pkt in service)
  double random_loss = 0.0;                   // iid wire-loss probability
  std::shared_ptr<RateProvider> trace;        // overrides `rate` when set
  // Custom AQM (RED, CoDel, ...). Defaults to DropTail(buffer_bytes).
  QueueFactory queue_factory;
};

class Link : public PacketSink {
 public:
  Link(EventQueue* events, LinkConfig config, Rng rng, PacketPool* pool);

  // PacketSink: enqueue (or DropTail-drop) an arriving packet. Takes
  // ownership of the ref; drops release it back to the pool.
  void Accept(PacketRef ref) override;

  // Instantaneous state.
  uint64_t queue_bytes() const { return queue_->queued_bytes(); }
  size_t queue_packets() const { return queue_->queued_packets(); }
  RateBps current_rate() const { return provider_->RateAt(events_->now()); }
  // Bytes of the packet currently in the service process (0 when idle).
  uint64_t in_service_bytes() const { return in_service_bytes_; }

  // Cumulative counters.
  uint64_t delivered_bytes() const { return delivered_bytes_; }
  uint64_t dropped_bytes() const { return queue_->dropped_bytes(); }  // AQM drops
  uint64_t wire_lost_bytes() const { return wire_lost_bytes_; }       // random loss
  uint64_t accepted_bytes() const { return accepted_bytes_; }

  const LinkConfig& config() const { return config_; }
  const RateProvider& provider() const { return *provider_; }
  const QueueDiscipline& queue() const { return *queue_; }

  // Attaches an event tracer recording enqueue/dequeue/drop at this link.
  // Null detaches; when off the per-packet cost is one pointer test.
  void set_tracer(Tracer* tracer, int32_t link_id);

  // Invariant-checker entry point (no-op unless invariants::Enabled()):
  // byte conservation (accepted = delivered + AQM-dropped + queued +
  // in-service), wire-loss bound, queue-occupancy bounds and — on deep
  // audits — the O(n) queue byte recount. Called internally at every packet
  // transition and by Network at the end of Run().
  void VerifyInvariants(const char* where, bool deep) const;

 private:
  void StartService(PacketRef ref);
  // Service timer: `in_service_` has been transmitted.
  void FinishService();
  // End of the propagation delay: hands the packet to its next hop.
  void Propagated(const PacketRef& ref) { ForwardToNextHop(*pool_, ref); }

  EventQueue* events_;
  LinkConfig config_;
  std::shared_ptr<RateProvider> provider_;
  Rng rng_;
  PacketPool* pool_;
  // Packets past service, in flight for config_.propagation_delay.
  DelayLine<PacketRef, Link, &Link::Propagated> wire_;
  // Pending while a packet is in service (the link is busy).
  Timer<Link, &Link::FinishService> service_timer_;
  PacketRef in_service_;

  std::unique_ptr<QueueDiscipline> queue_;
  Tracer* tracer_ = nullptr;
  int32_t trace_link_id_ = -1;

  uint64_t accepted_bytes_ = 0;
  uint64_t delivered_bytes_ = 0;
  uint64_t wire_lost_bytes_ = 0;
  uint64_t in_service_bytes_ = 0;

  // Invariant-checker state (only touched when the checker is enabled):
  // last sequence number each flow had delivered by this link, for the
  // per-flow FIFO-order check, plus a tick driving the periodic deep audit.
  mutable std::unordered_map<int32_t, uint64_t> last_delivered_seq_;
  mutable uint64_t audit_tick_ = 0;
};

}  // namespace astraea

#endif  // SRC_SIM_LINK_H_
