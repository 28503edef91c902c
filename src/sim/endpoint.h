// Flow endpoints: a bulk-transfer Sender driven by a CongestionController and
// its paired Receiver. The receiver acknowledges every data packet; ACKs
// return over an uncongested reverse path modelled as a pure delay (the
// Mahimahi/Pantheon-tunnel setup the paper trains and evaluates in).
//
// Loss detection: queues are FIFO and there is a single path, so a gap in the
// acknowledged sequence space reliably identifies drops (perfect-SACK
// equivalent of 3-dup-ACK detection); an RTO fallback covers tail losses.

#ifndef SRC_SIM_ENDPOINT_H_
#define SRC_SIM_ENDPOINT_H_

#include <deque>
#include <memory>
#include <string>

#include "src/sim/congestion_controller.h"
#include "src/sim/delay_line.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_meter.h"
#include "src/sim/packet.h"
#include "src/sim/packet_pool.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace astraea {

class Sender;

// Terminal sink of a data route: acknowledges each packet back to the sender
// after the configured reverse-path delay. ACKs wait in a DelayLine; the
// receiver holds a weak handle to the sender and locks it once per ACK, so a
// sender destroyed while ACKs are in flight (teardown mid-simulation)
// silently expires them instead of dangling.
class Receiver : public PacketSink {
 public:
  Receiver(EventQueue* events, PacketPool* pool, Sender* sender, TimeNs ack_return_delay);

  // Terminal hop: copies out the ACK fields and releases the packet slot.
  void Accept(PacketRef ref) override;

  // Late binding used by Network: the receiver must exist before the sender
  // (the data route ends with the receiver), so the back-pointer is set after
  // both are constructed.
  void set_sender(Sender* sender);

  uint64_t received_bytes() const { return received_bytes_; }

 private:
  struct Ack {
    uint64_t seq = 0;
    TimeNs sent_time = 0;
    uint32_t size_bytes = 0;
    bool ecn_ce = false;
  };

  void AckArrived(const Ack& ack);

  PacketPool* pool_;
  std::weak_ptr<Sender*> sender_;  // expired (or never set): ACKs are dropped
  DelayLine<Ack, Receiver, &Receiver::AckArrived> acks_;
  uint64_t received_bytes_ = 0;
};

struct SenderConfig {
  uint32_t mss = 1500;
  uint32_t initial_cwnd_packets = 10;
  TimeNs mtp = Milliseconds(30);      // Monitoring Time Period (Table 4)
  TimeNs min_rto = Milliseconds(200);
  // Request/response transfers (incast): stop emitting new data once this
  // many bytes have been sent, and record FlowStats::completed_at when the
  // last outstanding byte is ACKed or written off. 0 = unlimited bulk
  // transfer (the default; existing scenarios are unaffected).
  uint64_t max_transfer_bytes = 0;
  // min-RTT is maintained over a sliding window (kernel-style) so routing
  // changes do not pin a stale floor forever. The window is long (the kernel
  // uses minutes) because controllers re-anchor it with explicit drain
  // probes; a short window lets a standing queue corrupt the floor, which
  // turns delay-based control into a positive feedback loop.
  TimeNs min_rtt_window = Seconds(60.0);
};

// Per-flow measurements collected at MTP granularity.
struct FlowStats {
  TimeSeries throughput_mbps;  // ACKed rate per MTP
  TimeSeries rtt_ms;           // mean ACK RTT per MTP (skipped when idle)
  TimeSeries cwnd_packets;
  TimeSeries sending_mbps;     // transmitted rate per MTP
  uint64_t bytes_sent = 0;
  uint64_t bytes_acked = 0;
  uint64_t bytes_lost = 0;
  // ACKed bytes whose data packet carried a CE mark (ECN bottlenecks only).
  uint64_t bytes_ce_marked = 0;
  TimeNs started_at = -1;
  TimeNs stopped_at = -1;
  // Budgeted transfers only (SenderConfig::max_transfer_bytes > 0): when the
  // whole request was resolved (every sent byte ACKed or declared lost).
  TimeNs completed_at = -1;
};

class Sender {
 public:
  // `data_route` must end with this flow's Receiver. The route is copied and
  // owned by the sender. Data packets are acquired from `pool`.
  Sender(EventQueue* events, PacketPool* pool, int flow_id, Route data_route,
         std::unique_ptr<CongestionController> cc, SenderConfig config);
  ~Sender();

  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  void Start();             // begins transmitting now
  void Stop();              // stops transmitting now (inflight drains silently)
  bool running() const { return running_; }

  // Called by the Receiver when an ACK arrives back. `ecn_ce` echoes the CE
  // mark of the data packet (RFC 3168 ECE, immediate per-packet feedback as
  // in DCTCP); the default keeps every non-ECN call site unchanged.
  void OnAckArrival(uint64_t seq, TimeNs data_sent_time, uint32_t size_bytes,
                    bool ecn_ce = false);

  int flow_id() const { return flow_id_; }
  const FlowStats& stats() const { return stats_; }
  CongestionController& cc() { return *cc_; }
  const CongestionController& cc() const { return *cc_; }

  uint64_t inflight_bytes() const { return inflight_bytes_; }
  TimeNs srtt() const { return meter_.srtt(); }
  TimeNs min_rtt() const { return meter_.min_rtt(); }
  const MtpReport& last_report() const { return last_report_; }

  // Liveness token: the Receiver (ACK delivery) and scheduled timer lambdas
  // hold this weakly and no-op once the sender is destroyed. Expires in
  // ~Sender().
  std::weak_ptr<Sender*> weak_handle() const { return alive_; }

  // Attaches an event tracer recording send/ack/loss/rto-fire/cwnd for this
  // flow, and forwards it to the controller (kAction decisions). Null detaches.
  void set_tracer(Tracer* tracer);

  // Invariant-checker entry point (no-op unless invariants::Enabled()): flow
  // byte conservation (sent = acked + lost + in-flight), controller
  // cwnd/pacing sanity and — on deep audits — the O(n) recount of in-flight
  // bytes against the outstanding list. Called internally after every
  // ACK/loss/MTP event and by Network at the end of Run().
  void VerifyInvariants(const char* where, bool deep) const;

 private:
  struct Outstanding {
    uint64_t seq;
    TimeNs sent_time;
    uint32_t size_bytes;
  };

  uint64_t EffectiveCwnd() const;
  // Budgeted transfers: true once max_transfer_bytes have been emitted.
  bool BudgetExhausted() const;
  // Budgeted transfers: records completed_at (once) when every sent byte has
  // been resolved, and stops the flow so its timers disarm.
  void MaybeComplete();
  void TrySend();                    // ACK-clocked burst send
  void SchedulePacedSend();          // paced send loop
  void SendPacket();
  void DetectGapLosses(uint64_t acked_seq);
  TimeNs CurrentRto() const;
  void ArmRtoTimer();
  void ScheduleRtoCheck();
  void OnRtoCheck();
  void MtpTick();

  EventQueue* events_;
  PacketPool* pool_;
  int flow_id_;
  Route route_;
  std::unique_ptr<CongestionController> cc_;
  SenderConfig config_;
  Tracer* tracer_ = nullptr;

  // See weak_handle(). shared_ptr-to-self-pointer rather than
  // enable_shared_from_this because senders are held by unique_ptr/value.
  std::shared_ptr<Sender*> alive_ = std::make_shared<Sender*>(this);

  bool running_ = false;
  uint64_t next_seq_ = 0;
  std::deque<Outstanding> outstanding_;
  uint64_t inflight_bytes_ = 0;

  // RTT estimators, delivery-rate window and per-MTP accumulators — the
  // measurement engine shared with the real UDP data plane (src/net).
  FlowMeter meter_;
  // ECN interval accumulators live beside the meter (not inside it) so the
  // FlowMeter stays bit-equivalent with the real UDP data plane, which has
  // no ECN feedback channel.
  uint64_t interval_ce_bytes_ = 0;
  uint64_t interval_acked_bytes_ = 0;
  TimeNs last_ack_time_ = 0;

  // RTO: the deadline set by the last ArmRtoTimer() and the one pending check
  // event (its time, -1 when none is pending, and its Cancel handle).
  TimeNs rto_deadline_ = 0;
  TimeNs rto_check_at_ = -1;
  uint64_t rto_check_ = 0;

  // Paced-mode bookkeeping.
  bool pace_pending_ = false;
  TimeNs next_send_time_ = 0;

  // Invariant-checker deep-audit tick (only advances when the checker is on).
  mutable uint64_t audit_tick_ = 0;

  uint64_t mtp_generation_ = 0;
  MtpReport last_report_;

  FlowStats stats_;
};

}  // namespace astraea

#endif  // SRC_SIM_ENDPOINT_H_
