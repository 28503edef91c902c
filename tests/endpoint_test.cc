#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/network.h"
#include "src/sim/trace.h"

namespace astraea {
namespace {

// Fixed-window controller for exercising the sender machinery in isolation.
class FixedWindow : public CongestionController {
 public:
  explicit FixedWindow(uint64_t cwnd_bytes, std::optional<double> pacing = std::nullopt)
      : cwnd_(cwnd_bytes), pacing_(pacing) {}

  void OnAck(const AckEvent& ev) override {
    ++acks;
    last_ack = ev;
  }
  void OnLoss(const LossEvent& ev) override {
    ++losses;
    last_loss = ev;
  }
  void OnMtpTick(const MtpReport& report) override {
    ++ticks;
    last_report = report;
  }
  uint64_t cwnd_bytes() const override { return cwnd_; }
  std::optional<double> pacing_bps() const override { return pacing_; }
  std::string name() const override { return "fixed"; }

  uint64_t cwnd_;
  std::optional<double> pacing_;
  int acks = 0;
  int losses = 0;
  int ticks = 0;
  AckEvent last_ack;
  LossEvent last_loss;
  MtpReport last_report;
};

struct TestNet {
  explicit TestNet(LinkConfig link_config, uint64_t cwnd_bytes,
                   std::optional<double> pacing = std::nullopt) {
    net = std::make_unique<Network>(1);
    net->AddLink(link_config);
    FlowSpec spec;
    spec.scheme = "fixed";
    spec.make_cc = [this, cwnd_bytes, pacing] {
      auto cc = std::make_unique<FixedWindow>(cwnd_bytes, pacing);
      controller = cc.get();
      return cc;
    };
    net->AddFlow(spec);
  }

  std::unique_ptr<Network> net;
  FixedWindow* controller = nullptr;
};

LinkConfig DefaultLink() {
  LinkConfig config;
  config.rate = Mbps(100);
  config.propagation_delay = Milliseconds(15);  // 30ms base RTT
  config.buffer_bytes = 375'000;                // 1 BDP
  return config;
}

TEST(SenderTest, RttMeasurementMatchesBaseRtt) {
  TestNet t(DefaultLink(), 4 * 1500);  // tiny window: no queueing
  t.net->Run(Seconds(5.0));
  // min RTT = 2*15ms propagation + serialization (~0.12ms).
  const TimeNs min_rtt = t.net->sender(0).min_rtt();
  EXPECT_GE(min_rtt, Milliseconds(30));
  EXPECT_LE(min_rtt, Milliseconds(31));
}

TEST(SenderTest, ThroughputIsCwndOverRtt) {
  // 20 packets over ~30ms RTT: 20*1500*8/0.030 = 8 Mbps (well below capacity).
  TestNet t(DefaultLink(), 20 * 1500);
  t.net->Run(Seconds(5.0));
  const double thr =
      t.net->flow_stats(0).throughput_mbps.MeanOver(Seconds(1.0), Seconds(5.0));
  EXPECT_NEAR(thr, 8.0, 0.5);
}

TEST(SenderTest, SaturatesLinkWithLargeWindow) {
  // Window of 2 BDP: link-limited, standing queue of ~1 BDP.
  TestNet t(DefaultLink(), 2 * 375'000);
  t.net->Run(Seconds(5.0));
  const double thr =
      t.net->flow_stats(0).throughput_mbps.MeanOver(Seconds(1.0), Seconds(5.0));
  EXPECT_NEAR(thr, 100.0, 2.0);
  // RTT should be about doubled by the standing queue.
  const double rtt = t.net->flow_stats(0).rtt_ms.MeanOver(Seconds(1.0), Seconds(5.0));
  EXPECT_NEAR(rtt, 60.0, 5.0);
}

TEST(SenderTest, ConservationBytesSentEqualsAckedPlusLostPlusInflight) {
  LinkConfig link = DefaultLink();
  link.buffer_bytes = 30'000;  // shallow: force drops
  TestNet t(link, 3 * 375'000);
  t.net->Run(Seconds(5.0));
  const FlowStats& stats = t.net->flow_stats(0);
  EXPECT_EQ(stats.bytes_sent,
            stats.bytes_acked + stats.bytes_lost + t.net->sender(0).inflight_bytes());
}

TEST(SenderTest, GapLossDetectionFiresOnDrops) {
  LinkConfig link = DefaultLink();
  link.buffer_bytes = 30'000;  // shallow buffer: overdriving drops packets
  TestNet t(link, 3 * 375'000);
  t.net->Run(Seconds(5.0));
  EXPECT_GT(t.controller->losses, 0);
  EXPECT_FALSE(t.controller->last_loss.is_timeout);
  EXPECT_GT(t.net->flow_stats(0).bytes_lost, 0u);
}

TEST(SenderTest, WireLossIsDetectedWithoutQueueing) {
  LinkConfig link = DefaultLink();
  link.random_loss = 0.05;
  TestNet t(link, 20 * 1500);  // no congestion at all
  t.net->Run(Seconds(10.0));
  const FlowStats& stats = t.net->flow_stats(0);
  EXPECT_GT(stats.bytes_lost, 0u);
  const double loss_ratio =
      static_cast<double>(stats.bytes_lost) / (stats.bytes_acked + stats.bytes_lost);
  EXPECT_NEAR(loss_ratio, 0.05, 0.02);
}

TEST(SenderTest, RtoFiresWhenEverythingIsLost) {
  LinkConfig link = DefaultLink();
  link.random_loss = 1.0;  // black hole
  TestNet t(link, 10 * 1500);
  Tracer tracer("", Tracer::Format::kNone);
  t.net->SetTracer(&tracer);
  t.net->Run(Seconds(3.0));
  EXPECT_GT(t.controller->losses, 0);
  EXPECT_TRUE(t.controller->last_loss.is_timeout);
  // Everything written off was counted as lost.
  EXPECT_GT(t.net->flow_stats(0).bytes_lost, 0u);

  // The timer is armed at Start() (t = 0) and re-armed by each fire. With no
  // RTT sample the RTO stays at the initial 1 s, so every fire lands exactly
  // on last arm + RTO: 1 s, 2 s and 3 s.
  std::vector<TimeNs> fires;
  TimeNs last_arm = 0;
  for (const TraceEvent& ev : tracer.BufferedEvents()) {
    if (ev.type != TraceEventType::kRtoFire) {
      continue;
    }
    EXPECT_EQ(ev.b, 1000.0);  // rto_ms
    EXPECT_EQ(ev.time, last_arm + Milliseconds(1000));
    last_arm = ev.time;
    fires.push_back(ev.time);
  }
  EXPECT_EQ(fires, (std::vector<TimeNs>{Seconds(1.0), Seconds(2.0), Seconds(3.0)}));
}

// A sender keeps at most one RTO event pending: an ACK moves the deadline
// instead of scheduling another timer. Over a long lossless transfer the
// pending population is then bounded by the window (one event per packet in
// flight, on the link or on the ACK path) plus the MTP tick and the RTO
// check. One timer per ACK would keep ACK rate x RTO (~130 here) stale
// timers pending on top of that.
TEST(SenderTest, PendingEventsStayBoundedWithOneRtoTimer) {
  constexpr size_t kWindowPackets = 20;
  TestNet t(DefaultLink(), kWindowPackets * 1500);
  size_t max_pending = 0;
  for (int step = 1; step <= 200; ++step) {
    t.net->Run(Milliseconds(50) * step);  // 10 s in 50 ms slices
    max_pending = std::max(max_pending, t.net->events().pending());
  }
  EXPECT_EQ(t.net->flow_stats(0).bytes_lost, 0u);
  EXPECT_GT(t.controller->acks, 6000);
  EXPECT_LE(max_pending, kWindowPackets + 4);
}

// Closure timer for delivering ACKs by hand: runs `fn` when it fires.
class FnTimer final : public EventQueue::TimerBase {
 public:
  FnTimer(EventQueue* events, std::function<void()> fn)
      : TimerBase(events), fn_(std::move(fn)) {}

 private:
  void Fire() override { fn_(); }

  std::function<void()> fn_;
};

// A sink that swallows data packets, so a test can deliver ACKs by hand at
// exact times.
class DiscardSink : public PacketSink {
 public:
  explicit DiscardSink(PacketPool* pool) : pool_(pool) {}
  void Accept(PacketRef ref) override { pool_->Release(ref); }

 private:
  PacketPool* pool_;
};

// Same-nanosecond tie between an ACK and the RTO check: the queue runs them
// in the order they were scheduled, and the check counts as scheduled when it
// was last (re)scheduled, not at the last arm. Timeline (RTO = min_rto =
// 200 ms throughout, 2-packet window):
//   t=0    Start sends seq 0, 1; check set for the initial 1 s RTO.
//   t=10   ACK seq 0 arms deadline 210 ms: earlier, so the check moves there.
//          seq 2 is sent.
//   t=20   ACK seq 1 arms deadline 220 ms: later, so nothing is scheduled.
//          seq 3 is sent.
//   t=210  The check fires early and re-schedules itself at 220 ms.
//   t=220  ACK seq 2 and the check are both due.
// An ACK scheduled before the re-schedule at 210 ms runs first and moves the
// deadline; one scheduled after it finds seq 2 already written off.
TEST(SenderTest, SameNanosecondAckVersusRtoCheckFollowsScheduleOrder) {
  for (const TimeNs ack_scheduled_at : {Milliseconds(100), Milliseconds(215)}) {
    EventQueue events;
    PacketPool pool;
    DiscardSink sink(&pool);
    auto owned_cc = std::make_unique<FixedWindow>(2 * 1500);
    FixedWindow* cc = owned_cc.get();
    Sender sender(&events, &pool, 0, Route{&sink}, std::move(owned_cc), SenderConfig{});
    std::deque<FnTimer> timers;  // after `events`: the timers go first
    const auto schedule = [&](TimeNs when, std::function<void()> fn) {
      timers.emplace_back(&events, std::move(fn)).Arm(when);
    };
    sender.Start();
    const auto ack_at = [&](TimeNs when, uint64_t seq, TimeNs sent) {
      schedule(when, [&sender, seq, sent] { sender.OnAckArrival(seq, sent, 1500); });
    };
    ack_at(Milliseconds(10), 0, 0);
    ack_at(Milliseconds(20), 1, 0);
    schedule(ack_scheduled_at, [&] { ack_at(Milliseconds(220), 2, Milliseconds(10)); });
    events.RunUntil(Milliseconds(220));

    const bool ack_first = ack_scheduled_at < Milliseconds(210);
    SCOPED_TRACE(ack_first ? "ACK scheduled before the check" : "check scheduled first");
    EXPECT_EQ(cc->losses, ack_first ? 0 : 1);
    EXPECT_EQ(cc->acks, ack_first ? 3 : 2);
    EXPECT_EQ(sender.stats().bytes_lost, ack_first ? 0u : 2u * 1500);
  }
}

// Regression for the zero-ACK report skew: a silent MTP used to pair
// thr_bps == 0 with avg_rtt == srtt — a (stalled-throughput, healthy-latency)
// feature row no real network produces. A stalled interval must be marked and
// its avg_rtt must grow with the silence.
TEST(FlowMeterTest, ZeroAckIntervalIsStalledWithLowerBoundRtt) {
  FlowMeter meter(Seconds(60.0));
  FixedWindow cc(10 * 1500);

  // One healthy interval first: srtt converges to 20ms.
  meter.OnPacketAcked(Milliseconds(10), Milliseconds(20), 1500);
  const MtpReport healthy = meter.BuildReport(Milliseconds(30), Milliseconds(30),
                                              Milliseconds(10), 0, 0, cc);
  EXPECT_FALSE(healthy.stalled);
  EXPECT_EQ(healthy.avg_rtt, Milliseconds(20));
  EXPECT_GT(healthy.thr_bps, 0.0);
  meter.ResetInterval();

  // A silent interval: last ACK at t=10ms, report at t=1s. The silence bounds
  // every outstanding packet's RTT from below.
  meter.OnPacketSent(1500);
  const MtpReport stalled = meter.BuildReport(Seconds(1.0), Milliseconds(30),
                                              Milliseconds(10), 1500, 1, cc);
  EXPECT_TRUE(stalled.stalled);
  EXPECT_EQ(stalled.thr_bps, 0.0);
  EXPECT_EQ(stalled.avg_rtt, Seconds(1.0) - Milliseconds(10));
  EXPECT_GE(stalled.avg_rtt, stalled.srtt);
  meter.ResetInterval();

  // Deeper into the stall the bound keeps growing — the policy sees latency
  // inflating alongside the zeroed throughput, not a frozen healthy RTT.
  const MtpReport deeper = meter.BuildReport(Seconds(2.0), Milliseconds(30),
                                             Milliseconds(10), 1500, 1, cc);
  EXPECT_TRUE(deeper.stalled);
  EXPECT_GT(deeper.avg_rtt, stalled.avg_rtt);
}

TEST(SenderTest, BlackHoleProducesStalledReports) {
  LinkConfig link = DefaultLink();
  link.random_loss = 1.0;  // black hole: no data ever delivered, no ACKs
  TestNet t(link, 10 * 1500);
  // Stop between RTO fires (they land on whole seconds and reset the silence
  // clock): the last MTP report at ~2.88s carries a ~0.88s silence bound.
  t.net->Run(Seconds(2.9));
  EXPECT_TRUE(t.controller->last_report.stalled);
  EXPECT_EQ(t.controller->last_report.acked_packets, 0u);
  EXPECT_EQ(t.controller->last_report.thr_bps, 0.0);
  EXPECT_GT(t.controller->last_report.avg_rtt, 0);
}

TEST(SenderTest, MtpReportsArriveAtConfiguredCadence) {
  TestNet t(DefaultLink(), 20 * 1500);
  t.net->Run(Seconds(3.0));
  // 3s / 30ms = 100 ticks (+-1 for scheduling boundaries).
  EXPECT_NEAR(t.controller->ticks, 100, 2);
  EXPECT_EQ(t.controller->last_report.mtp, Milliseconds(30));
  EXPECT_GT(t.controller->last_report.thr_bps, 0.0);
  EXPECT_GT(t.controller->last_report.acked_packets, 0u);
}

TEST(SenderTest, PacedSenderRespectsPacingRate) {
  // Pacing at 20 Mbps with a huge window: throughput == pacing rate.
  TestNet t(DefaultLink(), 100 * 375'000, Mbps(20));
  t.net->Run(Seconds(5.0));
  const double thr =
      t.net->flow_stats(0).throughput_mbps.MeanOver(Seconds(1.0), Seconds(5.0));
  EXPECT_NEAR(thr, 20.0, 1.0);
}

TEST(SenderTest, StopHaltsTransmission) {
  TestNet t(DefaultLink(), 20 * 1500);
  t.net->Run(Seconds(1.0));
  t.net->sender(0).Stop();
  const uint64_t sent_at_stop = t.net->flow_stats(0).bytes_sent;
  t.net->Run(Seconds(3.0));
  EXPECT_EQ(t.net->flow_stats(0).bytes_sent, sent_at_stop);
  EXPECT_EQ(t.net->sender(0).inflight_bytes(), 0u);  // drained
}

TEST(SenderTest, DeliveryRateEstimateTracksThroughput) {
  TestNet t(DefaultLink(), 2 * 375'000);
  t.net->Run(Seconds(5.0));
  EXPECT_NEAR(t.controller->last_ack.delivery_rate_bps / Mbps(100), 1.0, 0.1);
}

TEST(ReceiverTest, CountsReceivedBytes) {
  TestNet t(DefaultLink(), 20 * 1500);
  t.net->Run(Seconds(2.0));
  EXPECT_GT(t.net->flow_stats(0).bytes_acked, 0u);
}

LinkConfig LastHopLink() {
  LinkConfig config;
  config.rate = Mbps(100);  // 1500 B served in 120 us
  config.propagation_delay = Milliseconds(5);
  config.buffer_bytes = 1'000'000;
  return config;
}

// The last hop is fused: an ACK takes its FIFO seq when its packet finishes
// service on the last link, not when the packet would reach the receiver one
// propagation later. A timer due in the same nanosecond as the ACK therefore
// fires after it when armed after that service completion (even before the
// packet reaches the receiver), and before it when armed earlier.
TEST(ReceiverTest, AckTakesItsSeqAtLastLinkServiceCompletion) {
  const TimeNs served = Microseconds(120);
  const TimeNs ack_due = served + Milliseconds(5) + Milliseconds(10);
  for (const TimeNs armed_at : {TimeNs{0}, Milliseconds(1)}) {
    SCOPED_TRACE(armed_at < served ? "armed before service completion"
                                   : "armed between service completion and arrival");
    EventQueue events;
    PacketPool pool;
    Link link(&events, LastHopLink(), Rng(1), &pool);
    Receiver receiver(&events, &pool, nullptr, /*ack_return_delay=*/Milliseconds(10));
    auto owned_cc = std::make_unique<FixedWindow>(1500);
    FixedWindow* cc = owned_cc.get();
    Sender sender(&events, &pool, 0, Route{&link, &receiver}, std::move(owned_cc),
                  SenderConfig{});
    receiver.set_sender(&sender);
    std::deque<FnTimer> timers;  // after `events`: the timers go first
    const auto schedule = [&](TimeNs when, std::function<void()> fn) {
      timers.emplace_back(&events, std::move(fn)).Arm(when);
    };
    int acks_at_fire = -1;
    sender.Start();  // seq 0 and 1 (two MSS minimum) enter the link at t=0
    schedule(armed_at, [&] { schedule(ack_due, [&] { acks_at_fire = cc->acks; }); });
    events.RunUntil(ack_due);
    EXPECT_EQ(acks_at_fire, armed_at < served ? 0 : 1);
    EXPECT_EQ(cc->acks, 1);
  }
}

// A packet leaving its last link goes straight onto the receiver's ACK line:
// the last link's wire line never holds a packet (only link-to-link hops use
// a wire line), the bytes count as received at that service completion, and
// each delivered packet costs one service completion per link, one wire
// delivery per link-to-link hop and exactly one ACK-line delivery.
TEST(ReceiverTest, LastLinkHandsPacketsStraightToTheAckLine) {
  constexpr uint64_t kPackets = 20;
  for (const size_t hops : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(hops == 1 ? "one link" : "two links");
    EventQueue events;
    PacketPool pool;
    std::vector<std::unique_ptr<Link>> links;
    Route route;
    for (size_t i = 0; i < hops; ++i) {
      links.push_back(std::make_unique<Link>(&events, LastHopLink(), Rng(i + 1), &pool));
      route.push_back(links.back().get());
    }
    Receiver receiver(&events, &pool, nullptr, /*ack_return_delay=*/Milliseconds(10));
    route.push_back(&receiver);
    // Never started: the ACKs reach it (and count as events) but change nothing.
    Sender sender(&events, &pool, 0, route, std::make_unique<FixedWindow>(1500),
                  SenderConfig{});
    receiver.set_sender(&sender);
    for (uint64_t seq = 0; seq < kPackets; ++seq) {
      const PacketRef ref = pool.Acquire();
      Packet& pkt = pool.Get(ref);
      pkt = Packet{};
      pkt.seq = seq;
      pkt.size_bytes = 1500;
      pkt.route = &route;
      links[0]->Accept(ref);
    }

    // The last link serves its last packet at this time (the links pipeline,
    // each hop adding its propagation and one service time).
    const TimeNs last_served = static_cast<TimeNs>(hops - 1) * Milliseconds(5) +
                               static_cast<TimeNs>(kPackets + hops - 1) * Microseconds(120);
    size_t first_wire_max = 0;
    while (events.pending() > 0) {
      const TimeNs before = events.now();
      events.RunUntil(before + Microseconds(10));
      EXPECT_EQ(links.back()->wire_packets(), 0u);
      first_wire_max = std::max(first_wire_max, links.front()->wire_packets());
      if (before < last_served && events.now() >= last_served) {
        EXPECT_EQ(receiver.received_bytes(), kPackets * 1500);
      } else if (events.now() < last_served) {
        EXPECT_LT(receiver.received_bytes(), kPackets * 1500);
      }
    }
    EXPECT_EQ(first_wire_max > 0, hops > 1);
    EXPECT_EQ(receiver.received_bytes(), kPackets * 1500);
    EXPECT_EQ(events.executed(), kPackets * (hops + (hops - 1) + 1));
    EXPECT_EQ(pool.live(), 0u);
  }
}

// Regression: the receiver's delayed ACK used to capture a raw Sender*, so
// destroying a sender with ACKs still in flight (mid-simulation teardown)
// dereferenced freed memory when those events later fired. ~Sender now
// clears the receiver's pointer, and its own pending MTP/RTO timers — and,
// for a paced sender, its pace timer — detach from the queue, so expired
// ACKs are silently discarded and none of its timers fires. Run under ASan
// to catch a use-after-free.
TEST(ReceiverTest, AckAfterSenderDestroyedIsDiscarded) {
  for (const bool paced : {false, true}) {
    SCOPED_TRACE(paced ? "paced sender" : "ACK-clocked sender");
    EventQueue events;
    PacketPool pool;
    Receiver receiver(&events, &pool, nullptr, /*ack_return_delay=*/Milliseconds(15));
    SenderConfig config;
    auto cc = paced ? std::make_unique<FixedWindow>(20 * 1500, Mbps(20))
                    : std::make_unique<FixedWindow>(20 * 1500);
    auto sender = std::make_unique<Sender>(&events, &pool, /*flow_id=*/0, Route{&receiver},
                                           std::move(cc), config);
    receiver.set_sender(sender.get());

    // Start and deliver a few packets: each Accept enters a delayed ACK.
    sender->Start();
    events.RunUntil(Milliseconds(5));
    EXPECT_GT(receiver.received_bytes(), 0u);
    // The ACK line's head, the MTP and RTO timers, and a paced send (20 Mbps
    // sends a packet every 0.6 ms, far below the window).
    EXPECT_EQ(events.pending(), paced ? 4u : 3u);

    // Tear the sender down while ACKs and its timers are pending.
    sender.reset();
    EXPECT_EQ(events.pending(), 1u);
    events.RunUntil(Seconds(2.0));  // delivers every stale ACK; must not crash
    EXPECT_GT(receiver.received_bytes(), 0u);
    EXPECT_EQ(events.pending(), 0u);
  }
}

}  // namespace
}  // namespace astraea
