// Flow endpoints: a bulk-transfer Sender driven by a CongestionController and
// its paired Receiver. The receiver acknowledges every data packet; ACKs
// return over an uncongested reverse path modelled as a pure delay (the
// Mahimahi/Pantheon-tunnel setup the paper trains and evaluates in).
//
// Loss detection: queues are FIFO and there is a single path, so a gap in the
// acknowledged sequence space reliably identifies drops (perfect-SACK
// equivalent of 3-dup-ACK detection); an RTO fallback covers tail losses.
//
// Each sender owns its timers (start, stop, paced send, MTP, RTO) as
// EventQueue timer members, so a sender destroyed mid-simulation takes its
// pending events with it. A receiver and its sender point at each other;
// whichever is destroyed first clears the other's pointer, and a receiver
// without a sender drops its ACKs.

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
// after the configured reverse-path delay. ACKs wait in a DelayLine; a sender
// destroyed while ACKs are in flight (teardown mid-simulation) clears the
// receiver's pointer, and those ACKs are then silently discarded.
class Receiver : public PacketSink {
 public:
  Receiver(EventQueue* events, PacketPool* pool, Sender* sender, TimeNs ack_return_delay);
  ~Receiver() override;

  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  // Terminal hop: copies out the ACK fields and releases the packet slot.
  void Accept(PacketRef ref) override;

  // Late binding used by Network: the receiver must exist before the sender
  // (the data route ends with the receiver), so the back-pointer is set after
  // both are constructed. A sender has at most one receiver.
  void set_sender(Sender* sender);

  uint64_t received_bytes() const { return received_bytes_; }

 private:
  struct Ack {
    uint64_t seq = 0;
    TimeNs sent_time = 0;
    uint32_t size_bytes = 0;
    bool ecn_ce = false;
  };

  friend class Sender;  // ~Sender clears sender_

  void AckArrived(const Ack& ack);

  PacketPool* pool_;
  Sender* sender_ = nullptr;  // null (never set, or destroyed): ACKs are dropped
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
  // Arm the start and stop timers: Start() / Stop() run at `when`.
  void StartAt(TimeNs when) { start_timer_.Arm(when); }
  void StopAt(TimeNs when) { stop_timer_.Arm(when); }
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
  // been resolved, and stops the flow (its pending timers then do nothing).
  void MaybeComplete();
  void TrySend();                    // ACK-clocked burst send
  void SchedulePacedSend();          // paced send loop
  void OnPaceTimer();
  void SendPacket();
  void DetectGapLosses(uint64_t acked_seq);
  TimeNs CurrentRto() const;
  void ArmRtoTimer();
  void OnRtoCheck();
  void OnMtpTimer();
  void MtpTick();

  EventQueue* events_;
  PacketPool* pool_;
  int flow_id_;
  Route route_;
  std::unique_ptr<CongestionController> cc_;
  SenderConfig config_;
  Tracer* tracer_ = nullptr;
  friend class Receiver;  // set_sender() pairs the two
  Receiver* receiver_ = nullptr;

  // Stop() disarms none of these: a stopped flow's pending timers fire as
  // no-ops. The pace timer is pending exactly while a paced send waits.
  Timer<Sender, &Sender::Start> start_timer_;
  Timer<Sender, &Sender::Stop> stop_timer_;
  Timer<Sender, &Sender::OnPaceTimer> pace_timer_;
  Timer<Sender, &Sender::OnMtpTimer> mtp_timer_;
  Timer<Sender, &Sender::OnRtoCheck> rto_timer_;

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

  // RTO: the deadline set by the last ArmRtoTimer(); rto_timer_ is armed at
  // or before it.
  TimeNs rto_deadline_ = 0;

  // Paced mode: when the next paced send is due.
  TimeNs next_send_time_ = 0;

  // Invariant-checker deep-audit tick (only advances when the checker is on).
  mutable uint64_t audit_tick_ = 0;

  // Bumped by Start() and Stop(); the kCwnd trace record carries it.
  uint64_t mtp_generation_ = 0;
  MtpReport last_report_;

  FlowStats stats_;
};

}  // namespace astraea

#endif  // SRC_SIM_ENDPOINT_H_
