#include "src/sim/link.h"

#include <string>
#include <utility>

#include "src/sim/invariants.h"
#include "src/util/failpoint.h"

namespace astraea {

namespace {
// Every kDeepAuditPeriod-th service completion also recounts the queue's
// bytes (O(n)) and runs discipline-specific extras; the per-packet checks
// stay O(1).
constexpr uint64_t kDeepAuditPeriod = 256;
}  // namespace

Link::Link(EventQueue* events, LinkConfig config, Rng rng, PacketPool* pool)
    : events_(events),
      config_(std::move(config)),
      rng_(rng),
      pool_(pool),
      wire_(events, this, config_.propagation_delay),
      service_timer_(events, this) {
  ASTRAEA_CHECK(pool_ != nullptr);
  if (config_.trace != nullptr) {
    provider_ = config_.trace;
  } else {
    provider_ = std::make_shared<ConstantRate>(config_.rate);
  }
  if (config_.queue_factory) {
    queue_ = config_.queue_factory(rng_.Fork());
  } else {
    queue_ = std::make_unique<DropTailQueue>(config_.buffer_bytes);
  }
  queue_->set_pool(pool_);
}

void Link::set_tracer(Tracer* tracer, int32_t link_id) {
  tracer_ = tracer;
  trace_link_id_ = link_id;
  queue_->set_tracer(tracer, link_id);
}

void Link::VerifyInvariants(const char* where, bool deep) const {
  if (!invariants::Enabled()) {
    return;
  }
  // Conservation: every accepted byte is accounted for exactly once — it was
  // delivered into the wire, dropped by the discipline, still queued, or in
  // the service process right now.
  const uint64_t accounted =
      delivered_bytes_ + queue_->dropped_bytes() + queue_->queued_bytes() + in_service_bytes_;
  if (accepted_bytes_ != accounted) {
    invariants::Report(
        "link.conservation",
        std::string(where) + " link '" + config_.name + "': accepted " +
            std::to_string(accepted_bytes_) + " B != delivered " +
            std::to_string(delivered_bytes_) + " + dropped " +
            std::to_string(queue_->dropped_bytes()) + " + queued " +
            std::to_string(queue_->queued_bytes()) + " + in-service " +
            std::to_string(in_service_bytes_) + " B");
  }
  // Wire loss is applied to packets that completed service, so it can never
  // exceed the delivered total.
  if (wire_lost_bytes_ > delivered_bytes_) {
    invariants::Report("link.wire_loss_bound",
                       std::string(where) + " link '" + config_.name + "': wire-lost " +
                           std::to_string(wire_lost_bytes_) + " B exceeds delivered " +
                           std::to_string(delivered_bytes_) + " B");
  }
  queue_->VerifyInvariants(deep);
}

void Link::Accept(PacketRef ref) {
  const Packet& pkt = pool_->Get(ref);
  accepted_bytes_ += pkt.size_bytes;
  // Injectable simulator bug for the correctness harness (see failpoint.h):
  // while armed, the packet silently vanishes without being counted as a
  // drop. The invariant checker flags the broken link conservation and the
  // golden-trace diff flags the altered flow dynamics. The pool slot is still
  // released — the injected bug is in the byte accounting, not a slot leak.
  if (failpoint::g_any_armed.load(std::memory_order_relaxed) &&
      failpoint::IsArmed("sim.queue.drop_uncounted")) {
    pool_->Release(ref);
    VerifyInvariants("Accept", false);
    return;
  }
  if (!service_timer_.pending()) {
    StartService(ref);
    return;
  }
  // Enqueue (or drop, per the discipline): dropped packets silently vanish;
  // senders infer the loss from the ACK gap. The discipline traces drops.
  const int flow_id = pkt.flow_id;
  const uint64_t seq = pkt.seq;
  const uint32_t size = pkt.size_bytes;
  if (queue_->Enqueue(ref, events_->now()) && tracer_ != nullptr) {
    tracer_->Record(events_->now(), TraceEventType::kEnqueue, flow_id, trace_link_id_,
                    seq, static_cast<double>(size),
                    static_cast<double>(queue_->queued_bytes()));
  }
  if (invariants::Enabled()) {
    VerifyInvariants("Accept", false);
  }
}

void Link::StartService(PacketRef ref) {
  in_service_ = ref;
  in_service_bytes_ = pool_->Get(ref).size_bytes;
  const RateBps rate = provider_->RateAt(events_->now());
  const TimeNs tx = TransmissionDelay(in_service_bytes_, rate);
  service_timer_.Arm(events_->now() + tx);
}

void Link::FinishService() {
  const PacketRef ref = in_service_;
  const Packet& pkt = pool_->Get(ref);
  const uint32_t size = pkt.size_bytes;
  const int flow_id = pkt.flow_id;
  const uint64_t seq = pkt.seq;
  delivered_bytes_ += size;
  in_service_bytes_ = 0;
  if (config_.random_loss > 0.0 && rng_.Bernoulli(config_.random_loss)) {
    wire_lost_bytes_ += size;
    pool_->Release(ref);
  } else {
    wire_.Push(ref);
  }
  if (invariants::Enabled()) {
    // FIFO per flow: this link must deliver a flow's packets in the order the
    // flow sent them (sequence numbers are strictly increasing, never reused).
    uint64_t& last = last_delivered_seq_[flow_id];
    if (last != 0 && seq <= last - 1) {
      invariants::Report("link.fifo_order",
                         "link '" + config_.name + "' delivered seq " + std::to_string(seq) +
                             " of flow " + std::to_string(flow_id) + " after seq " +
                             std::to_string(last - 1));
    }
    last = seq + 1;  // store seq+1 so seq 0 is distinguishable from "none"
  }
  std::optional<PacketRef> next = queue_->Dequeue(events_->now());
  if (next.has_value()) {
    if (tracer_ != nullptr) {
      const Packet& np = pool_->Get(*next);
      tracer_->Record(events_->now(), TraceEventType::kDequeue, np.flow_id, trace_link_id_,
                      np.seq, static_cast<double>(np.size_bytes),
                      static_cast<double>(queue_->queued_bytes()));
    }
    StartService(*next);
  }
  if (invariants::Enabled()) {
    VerifyInvariants("FinishService", ++audit_tick_ % kDeepAuditPeriod == 0);
  }
}

}  // namespace astraea
