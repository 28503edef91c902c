#include "src/core/astraea_controller.h"

#include <algorithm>

#include "src/util/logging.h"

namespace astraea {

AstraeaController::AstraeaController(std::shared_ptr<const Policy> policy,
                                     AstraeaHyperparameters hp)
    : policy_(std::move(policy)), hp_(hp), state_block_(hp.history_length) {
  ASTRAEA_CHECK(policy_ != nullptr);
}

void AstraeaController::OnFlowStart(TimeNs /*now*/, uint32_t mss) {
  mss_ = mss;
  cwnd_ = 10ULL * mss_;
  slow_start_ = true;
}

void AstraeaController::FinishDrain() {
  draining_ = false;
  if (drain_succeeded_) {
    // The queue emptied: no buffer-filling competitor. Relax the appetite
    // gradually (one halving per epoch) so mode changes are damped.
    backlog_target_scale_ = std::max(1.0, backlog_target_scale_ / 2.0);
  } else {
    // The queue stayed pinned despite shrinking the window: a buffer-filling
    // competitor occupies it. Grow the standing-queue appetite, bounded, so
    // our share of the buffer — and thus of the bottleneck — recovers without
    // ever monopolizing it. This is the distilled form of §5.3.1's learned
    // "tolerance to latency inflation when occupying low bandwidth".
    backlog_target_scale_ = std::min(backlog_target_scale_ * 1.5, 8.0);
  }
}

uint64_t AstraeaController::cwnd_bytes() const {
  if (draining_) {
    // Gentle depth by default: with every flow at 85%, the fleet frees ~15%
    // of capacity, which empties the few-packets-per-flow standing queue well
    // within the drain window while barely denting throughput. Once the
    // appetite has escalated, the fleet's standing queue can exceed what a
    // shallow drain can flush in one window — drains that cannot succeed
    // would pin the escalation forever — so escalated flows drain deep (50%)
    // to decisively test whether a real competitor owns the queue.
    const uint64_t num = backlog_target_scale_ > 1.0 ? 1 : 17;
    const uint64_t den = backlog_target_scale_ > 1.0 ? 2 : 20;
    return std::max<uint64_t>(cwnd_ * num / den, 2ULL * mss_);
  }
  return cwnd_;
}

std::optional<double> AstraeaController::pacing_bps() const {
  // cwnd / sRTT pacing (§3.3), with 20% headroom so the window — not the
  // pacer — is the binding constraint in steady state.
  const double rtt = ToSeconds(std::max<TimeNs>(srtt_hint_, Milliseconds(1)));
  return 1.2 * static_cast<double>(cwnd_bytes()) * 8.0 / rtt;
}

void AstraeaController::OnAck(const AckEvent& ev) {
  srtt_hint_ = ev.srtt;
  // A near-floor RTT sample re-anchors the latency floor: no drain needed.
  // Tolerance: 5% of the floor or 2 ms, whichever is larger, so many small
  // per-flow backlogs on a big pipe do not read as a pinned queue.
  const TimeNs tolerance = std::max<TimeNs>(ev.min_rtt / 20, Milliseconds(2));
  if (ev.min_rtt > 0 && ev.rtt <= ev.min_rtt + tolerance) {
    last_min_refresh_ = ev.now;
    if (draining_) {
      drain_succeeded_ = true;
    }
  }
  if (draining_ && ev.now >= drain_until_) {
    FinishDrain();
  }
  if (!slow_start_) {
    return;
  }
  cwnd_ += ev.acked_bytes;
  // Hand over to the agent once queueing is visible: the RTT has inflated by
  // 25% over the floor, meaning the pipe is full.
  if (ev.min_rtt > 0 && ev.rtt > ev.min_rtt + ev.min_rtt / 4) {
    slow_start_ = false;
  }
}

void AstraeaController::OnLoss(const LossEvent& ev) {
  if (ev.is_timeout) {
    // As in kernel TCP, an RTO re-enters slow start so the flow re-probes the
    // (possibly changed) path quickly instead of crawling at 2.5% per MTP.
    cwnd_ = 2ULL * mss_;
    slow_start_ = true;
    return;
  }
  if (slow_start_) {
    slow_start_ = false;
    cwnd_ = std::max<uint64_t>(static_cast<uint64_t>(cwnd_ * 0.7), 2ULL * mss_);
    return;
  }
  // Packet loss reaches the policy via the state/loss features.
}

void AstraeaController::OnMtpTick(const MtpReport& report) {
  state_block_.Update(report, mss_);
  if (slow_start_) {
    return;
  }

  // Base-RTT probe: every epoch, all flows shrink their windows inside the
  // same wall-clock-aligned drain window (BBR's PROBE_RTT, synchronized by
  // construction instead of emergently). The drain is unconditional by
  // default: a flow whose min-RTT was contaminated by an existing standing
  // queue cannot tell that it needs one — its corrupted floor always looks
  // "fresh" — so only a fleet-wide drain reliably empties the queue and
  // re-anchors every floor. skip_drain_on_fresh_floor opts out of the probe
  // when the floor was re-anchored within the last epoch (single-flow real
  // paths, where the floor is trustworthy and a drain only costs throughput).
  if (draining_ && report.now >= drain_until_) {
    FinishDrain();
  }
  const int64_t epoch_index = report.now / hp_.probe_epoch;
  if (!draining_ && epoch_index != last_drain_epoch_ &&
      (report.now % hp_.probe_epoch) < hp_.drain_window) {
    last_drain_epoch_ = epoch_index;
    const bool floor_fresh = hp_.skip_drain_on_fresh_floor && last_min_refresh_ > 0 &&
                             report.now - last_min_refresh_ <= hp_.probe_epoch;
    if (!floor_fresh) {
      draining_ = true;
      drain_succeeded_ = false;
      drain_until_ = report.now + std::max<TimeNs>(srtt_hint_, 2 * hp_.mtp) + hp_.mtp;
    }
  }
  const std::vector<float> state = state_block_.StateVector();
  StateView view;
  view.state_vector = state;
  view.report = &report;
  view.lat_min = state_block_.lat_min();
  view.thr_max_bps = state_block_.thr_max_bps();
  view.mss = mss_;
  view.mtp = hp_.mtp;
  view.action_alpha = hp_.action_alpha;
  view.backlog_target_scale = backlog_target_scale_;

  double action = policy_->Act(view);
  if (hook_) {
    action = std::clamp(hook_(view, action), -1.0, 1.0);
  }
  last_action_ = action;
  const uint64_t bdp = BdpBytes(state_block_.thr_max_bps(), state_block_.lat_min());
  const uint64_t cwnd_clamp = std::max<uint64_t>(kCwndClampBdpMultiple * bdp, 10ULL * mss_);
  cwnd_ = std::min(ApplyActionToCwnd(cwnd_, action, hp_.action_alpha, mss_), cwnd_clamp);
  if (tracer_ != nullptr) {
    tracer_->Record(report.now, TraceEventType::kAction, trace_flow_id_, -1,
                    static_cast<uint64_t>(epoch_index), action,
                    static_cast<double>(cwnd_));
  }
}

}  // namespace astraea
