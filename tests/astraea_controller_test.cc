#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/astraea_controller.h"
#include "src/sim/network.h"

namespace astraea {
namespace {

std::shared_ptr<const Policy> Distilled() { return std::make_shared<DistilledPolicy>(); }

TEST(AstraeaControllerTest, StartsInSlowStart) {
  AstraeaController cc(Distilled());
  cc.OnFlowStart(0, 1500);
  EXPECT_TRUE(cc.in_slow_start());
  EXPECT_EQ(cc.cwnd_bytes(), 10u * 1500u);
}

TEST(AstraeaControllerTest, SlowStartGrowsPerAck) {
  AstraeaController cc(Distilled());
  cc.OnFlowStart(0, 1500);
  AckEvent ev;
  ev.now = Milliseconds(30);
  ev.rtt = Milliseconds(30);
  ev.srtt = Milliseconds(30);
  ev.min_rtt = Milliseconds(30);
  ev.acked_bytes = 1500;
  const uint64_t w0 = cc.cwnd_bytes();
  cc.OnAck(ev);
  EXPECT_EQ(cc.cwnd_bytes(), w0 + 1500);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(AstraeaControllerTest, QueueingEndsSlowStart) {
  AstraeaController cc(Distilled());
  cc.OnFlowStart(0, 1500);
  AckEvent ev;
  ev.now = Milliseconds(30);
  ev.rtt = Milliseconds(40);  // >25% above the 30ms floor
  ev.srtt = Milliseconds(40);
  ev.min_rtt = Milliseconds(30);
  ev.acked_bytes = 1500;
  cc.OnAck(ev);
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(AstraeaControllerTest, LossEndsSlowStartWithBackoff) {
  AstraeaController cc(Distilled());
  cc.OnFlowStart(0, 1500);
  const uint64_t w0 = cc.cwnd_bytes();
  LossEvent loss;
  loss.now = Milliseconds(10);
  loss.lost_bytes = 1500;
  cc.OnLoss(loss);
  EXPECT_FALSE(cc.in_slow_start());
  EXPECT_LT(cc.cwnd_bytes(), w0);
}

TEST(AstraeaControllerTest, AgentAppliesEq3PerMtp) {
  AstraeaController cc(Distilled());
  cc.OnFlowStart(0, 1500);
  // Leave slow start.
  LossEvent loss;
  loss.now = Milliseconds(10);
  cc.OnLoss(loss);
  const uint64_t w0 = cc.cwnd_bytes();

  MtpReport report;
  report.now = Milliseconds(300);  // outside the epoch-aligned drain window
  report.mtp = Milliseconds(30);
  report.thr_bps = Mbps(10);
  report.avg_rtt = Milliseconds(30);
  report.srtt = Milliseconds(30);
  report.min_rtt = Milliseconds(30);
  report.cwnd_bytes = w0;
  report.acked_packets = 10;
  cc.OnMtpTick(report);
  // Empty queue -> distilled action +1 -> cwnd * 1.025.
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), w0 * 1.025, 2.0);
  EXPECT_DOUBLE_EQ(cc.last_action(), 1.0);
}

TEST(AstraeaControllerTest, ActionHookOverridesPolicy) {
  AstraeaController cc(Distilled());
  cc.set_action_hook([](const StateView&, double) { return -1.0; });
  cc.OnFlowStart(0, 1500);
  LossEvent loss;
  loss.now = Milliseconds(10);
  cc.OnLoss(loss);
  const uint64_t w0 = cc.cwnd_bytes();

  MtpReport report;
  report.now = Milliseconds(300);  // outside the epoch-aligned drain window
  report.mtp = Milliseconds(30);
  report.avg_rtt = Milliseconds(30);
  report.srtt = Milliseconds(30);
  report.min_rtt = Milliseconds(30);
  report.cwnd_bytes = w0;
  report.acked_packets = 10;
  cc.OnMtpTick(report);
  EXPECT_LT(cc.cwnd_bytes(), w0);
  EXPECT_DOUBLE_EQ(cc.last_action(), -1.0);
}

TEST(AstraeaControllerTest, DrainsOncePerEpochInAlignedWindow) {
  AstraeaHyperparameters hp;
  AstraeaController cc(Distilled(), hp);
  cc.OnFlowStart(0, 1500);
  LossEvent loss;
  loss.now = Milliseconds(10);
  cc.OnLoss(loss);

  MtpReport report;
  report.mtp = hp.mtp;
  report.avg_rtt = Milliseconds(60);
  report.srtt = Milliseconds(60);
  report.min_rtt = Milliseconds(30);
  report.cwnd_bytes = cc.cwnd_bytes();
  report.acked_packets = 10;

  int drain_starts = 0;
  bool was_draining = false;
  const int ticks = 200;  // 6s of MTPs = 2+ epochs
  for (int i = 1; i <= ticks; ++i) {
    report.now = hp.mtp * i;
    cc.OnMtpTick(report);
    if (cc.draining() && !was_draining) {
      ++drain_starts;
      // Drain starts must fall inside the epoch-aligned window.
      EXPECT_LT(report.now % hp.probe_epoch, hp.drain_window + hp.mtp);
    }
    was_draining = cc.draining();
  }
  // One drain per epoch boundary crossed (6s / 2.5s ~ 2-3 epochs).
  EXPECT_GE(drain_starts, 2);
  EXPECT_LE(drain_starts, 3);
}

// Regression for the last_min_refresh_ dead-state bug: the refresh timestamp
// was recorded on every near-floor ACK but never consulted, so the epoch
// drain fired even when the latency floor had just been re-anchored. With
// skip_drain_on_fresh_floor set, a flow whose floor was refreshed within the
// last epoch must not drain.
TEST(AstraeaControllerTest, FreshFloorSkipsEpochDrainWhenEnabled) {
  for (const bool skip : {false, true}) {
    AstraeaHyperparameters hp;
    hp.skip_drain_on_fresh_floor = skip;
    AstraeaController cc(Distilled(), hp);
    cc.OnFlowStart(0, 1500);
    LossEvent loss;
    loss.now = Milliseconds(10);
    cc.OnLoss(loss);

    // A near-floor RTT sample just before the epoch boundary re-anchors the
    // floor (rtt within 5%/2ms tolerance of min_rtt).
    AckEvent ack;
    ack.now = hp.probe_epoch - hp.mtp;
    ack.rtt = Milliseconds(30);
    ack.srtt = Milliseconds(30);
    ack.min_rtt = Milliseconds(30);
    ack.acked_bytes = 1500;
    cc.OnAck(ack);

    // First MTP tick inside the next epoch's drain window.
    MtpReport report;
    report.mtp = hp.mtp;
    report.now = hp.probe_epoch + hp.mtp;  // (now % epoch) = 30ms < 150ms window
    report.avg_rtt = Milliseconds(60);
    report.srtt = Milliseconds(60);
    report.min_rtt = Milliseconds(30);
    report.cwnd_bytes = cc.cwnd_bytes();
    report.acked_packets = 10;
    const uint64_t full_window = cc.cwnd_bytes();
    cc.OnMtpTick(report);
    if (skip) {
      EXPECT_FALSE(cc.draining());
      EXPECT_GE(cc.cwnd_bytes(), full_window * 17 / 20);
    } else {
      EXPECT_TRUE(cc.draining());
    }
  }
}

TEST(AstraeaControllerTest, StaleFloorStillDrainsWithSkipEnabled) {
  AstraeaHyperparameters hp;
  hp.skip_drain_on_fresh_floor = true;
  AstraeaController cc(Distilled(), hp);
  cc.OnFlowStart(0, 1500);
  LossEvent loss;
  loss.now = Milliseconds(10);
  cc.OnLoss(loss);

  // Floor refreshed early in flow life, then nothing near the floor for more
  // than an epoch: the drain must fire (that is the probe's whole purpose).
  AckEvent ack;
  ack.now = Milliseconds(40);
  ack.rtt = Milliseconds(30);
  ack.srtt = Milliseconds(30);
  ack.min_rtt = Milliseconds(30);
  ack.acked_bytes = 1500;
  cc.OnAck(ack);

  MtpReport report;
  report.mtp = hp.mtp;
  report.now = 2 * hp.probe_epoch + hp.mtp;
  report.avg_rtt = Milliseconds(60);
  report.srtt = Milliseconds(60);
  report.min_rtt = Milliseconds(30);
  report.cwnd_bytes = cc.cwnd_bytes();
  report.acked_packets = 10;
  cc.OnMtpTick(report);
  EXPECT_TRUE(cc.draining());
}

TEST(AstraeaControllerTest, DrainShrinksWindowAndRecovers) {
  AstraeaHyperparameters hp;
  AstraeaController cc(Distilled(), hp);
  cc.OnFlowStart(0, 1500);
  LossEvent loss;
  loss.now = Milliseconds(10);
  cc.OnLoss(loss);

  MtpReport report;
  report.mtp = hp.mtp;
  report.avg_rtt = Milliseconds(60);
  report.srtt = Milliseconds(60);
  report.min_rtt = Milliseconds(30);
  report.cwnd_bytes = cc.cwnd_bytes();
  report.acked_packets = 10;

  uint64_t pre_drain = 0;
  bool saw_shrink = false;
  for (int i = 1; i <= 200; ++i) {
    report.now = hp.mtp * i;
    const uint64_t before = cc.cwnd_bytes();
    cc.OnMtpTick(report);
    if (cc.draining()) {
      if (pre_drain == 0) {
        pre_drain = before;
      }
      // Exposed window shrinks to ~85% while draining.
      EXPECT_LT(cc.cwnd_bytes(), pre_drain);
      saw_shrink = true;
    } else if (saw_shrink && pre_drain > 0) {
      // After the drain, the agent window is exposed again (>= 85% level).
      EXPECT_GE(cc.cwnd_bytes() + 1, pre_drain * 17 / 20);
      pre_drain = 0;
    }
  }
  EXPECT_TRUE(saw_shrink);
}

TEST(AstraeaControllerTest, FailedDrainsEscalateCompetitiveAppetite) {
  AstraeaHyperparameters hp;
  AstraeaController cc(Distilled(), hp);
  cc.OnFlowStart(0, 1500);
  LossEvent loss;
  loss.now = Milliseconds(10);
  cc.OnLoss(loss);

  MtpReport report;
  report.mtp = hp.mtp;
  report.avg_rtt = Milliseconds(90);  // pinned queue: drains never succeed
  report.srtt = Milliseconds(90);
  report.min_rtt = Milliseconds(30);
  report.cwnd_bytes = cc.cwnd_bytes();
  report.acked_packets = 10;
  for (int i = 1; i <= 400; ++i) {  // ~12s: several failed drains
    report.now = hp.mtp * i;
    cc.OnMtpTick(report);
  }
  EXPECT_GT(cc.backlog_target_scale(), 1.0);
  EXPECT_LE(cc.backlog_target_scale(), 8.0);  // bounded: never monopolizes

  // Once drains start succeeding (near-floor RTT observed mid-drain), the
  // appetite relaxes back to 1 over a few epochs.
  for (int i = 401; i <= 1200 && cc.backlog_target_scale() > 1.0; ++i) {
    report.now = hp.mtp * i;
    report.avg_rtt = Milliseconds(31);
    report.srtt = Milliseconds(31);
    cc.OnMtpTick(report);
    if (cc.draining()) {
      AckEvent ev;
      ev.now = report.now;
      ev.rtt = Milliseconds(30);
      ev.srtt = Milliseconds(30);
      ev.min_rtt = Milliseconds(30);
      ev.acked_bytes = 1500;
      cc.OnAck(ev);
    }
  }
  EXPECT_DOUBLE_EQ(cc.backlog_target_scale(), 1.0);
}

TEST(AstraeaControllerTest, EndToEndSingleFlowFillsLink) {
  Network net(1);
  LinkConfig link;
  link.rate = Mbps(100);
  link.propagation_delay = Milliseconds(15);
  link.buffer_bytes = 375'000;
  net.AddLink(link);
  FlowSpec spec;
  spec.scheme = "astraea";
  spec.make_cc = [] { return std::make_unique<AstraeaController>(Distilled()); };
  net.AddFlow(spec);
  net.Run(Seconds(20.0));
  const double thr = net.flow_stats(0).throughput_mbps.MeanOver(Seconds(5.0), Seconds(20.0));
  EXPECT_GT(thr, 92.0);
  const double rtt = net.flow_stats(0).rtt_ms.MeanOver(Seconds(5.0), Seconds(20.0));
  EXPECT_LT(rtt, 40.0);  // small standing queue (K packets)
}

// Always answers +1: the untrained actor that keeps growing its window.
class AlwaysIncreasePolicy : public Policy {
 public:
  double Act(const StateView& /*view*/) const override { return 1.0; }
  std::string name() const override { return "always-increase"; }
};

// Checks the window against the BDP clamp after every agent decision, with
// the bound recomputed here from the state block rather than read from the
// controller.
class ClampCheckingController : public AstraeaController {
 public:
  explicit ClampCheckingController(int* binding_ticks)
      : AstraeaController(std::make_shared<AlwaysIncreasePolicy>()),
        binding_ticks_(binding_ticks) {}

  void OnMtpTick(const MtpReport& report) override {
    AstraeaController::OnMtpTick(report);
    if (in_slow_start()) {
      return;
    }
    const uint64_t bdp = BdpBytes(state_block().thr_max_bps(), state_block().lat_min());
    const uint64_t bound = std::max<uint64_t>(kCwndClampBdpMultiple * bdp, 10ULL * 1500);
    EXPECT_LE(cwnd_bytes(), bound) << "at " << ToSeconds(report.now) << " s";
    if (!draining() && cwnd_bytes() == bound) {
      ++*binding_ticks_;
    }
  }

 private:
  int* binding_ticks_;
};

TEST(AstraeaControllerTest, AlwaysIncreasingPolicyIsClampedAtBdpMultiple) {
  // Unclamped, +1 every MTP grows cwnd 2.5% per 30 ms and the simulator's
  // work doubles every simulated second (~1M events by 6 s on this link).
  // Clamped, the window stops at kCwndClampBdpMultiple BDPs and the event
  // rate stays flat.
  Network net(1);
  LinkConfig link;
  link.rate = Mbps(60);
  link.propagation_delay = Milliseconds(15);
  link.buffer_bytes = BdpBytes(Mbps(60), Milliseconds(30));
  net.AddLink(link);
  int binding_ticks = 0;
  FlowSpec spec;
  spec.scheme = "astraea";
  spec.make_cc = [&binding_ticks] {
    return std::make_unique<ClampCheckingController>(&binding_ticks);
  };
  net.AddFlow(spec);
  net.Run(Seconds(8.0));
  EXPECT_GT(binding_ticks, 0);  // the clamp, not the link, bounded the window
  // Clamped, the run dispatches ~0.38M events; unclamped, ~5.0M.
  constexpr uint64_t kEventBudget = 1'000'000;
  EXPECT_LT(net.events().executed(), kEventBudget);
}

}  // namespace
}  // namespace astraea
