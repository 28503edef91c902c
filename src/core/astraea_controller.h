// AstraeaController: the deployable congestion controller (paper Fig. 3,
// "Evaluation" path). Per MTP it assembles the local state (state block),
// queries the policy for an action, and applies Eq. 3 to the congestion
// window; pacing follows cwnd / sRTT (§3.3).
//
// Like the paper's kernel-TCP integration, a brand-new flow runs standard
// slow start until the first congestion signal (queueing or loss) and then
// hands control to the agent — this is what gives Astraea its fast initial
// convergence while the per-MTP action is bounded by alpha.
//
// During training, an ActionHook lets the learner observe the state, inject
// exploration noise, and record the transition (the Enforcer role in §3.2).

#ifndef SRC_CORE_ASTRAEA_CONTROLLER_H_
#define SRC_CORE_ASTRAEA_CONTROLLER_H_

#include <functional>
#include <memory>

#include "src/core/policy.h"
#include "src/core/state_block.h"
#include "src/core/training_config.h"
#include "src/sim/congestion_controller.h"

namespace astraea {

// Upper bound on the agent's window, as a multiple of the flow's own measured
// BDP (thr_max × lat_min from the state block); the bound is never below
// 10 MSS. The simulator's counterpart of the kernel module's snd_cwnd_clamp:
// without it, a policy that keeps choosing +1 (an untrained actor) grows cwnd
// 2.5% per MTP forever and the simulation's work grows with it.
inline constexpr uint64_t kCwndClampBdpMultiple = 16;

// Training hook: receives the state view and the policy's proposed action;
// returns the action to actually apply (e.g. with exploration noise).
using ActionHook = std::function<double(const StateView& view, double proposed_action)>;

class AstraeaController : public CongestionController {
 public:
  AstraeaController(std::shared_ptr<const Policy> policy, AstraeaHyperparameters hp = {});

  void set_action_hook(ActionHook hook) { hook_ = std::move(hook); }

  void OnFlowStart(TimeNs now, uint32_t mss) override;
  void OnAck(const AckEvent& ev) override;
  void OnLoss(const LossEvent& ev) override;
  void OnMtpTick(const MtpReport& report) override;

  // Returns the agent's window, halved while a base-RTT drain is in progress.
  uint64_t cwnd_bytes() const override;
  std::optional<double> pacing_bps() const override;
  std::string name() const override { return "astraea"; }

  // Records one kAction event per MTP decision (a = applied action in [-1,1],
  // b = resulting cwnd in bytes).
  void set_tracer(Tracer* tracer, int32_t flow_id) override {
    tracer_ = tracer;
    trace_flow_id_ = flow_id;
  }

  bool in_slow_start() const { return slow_start_; }
  bool draining() const { return draining_; }
  double last_action() const { return last_action_; }
  // Competitive-mode multiplier (1.0 when only well-behaved flows share the
  // bottleneck; grows while drain probes fail to empty the queue).
  double backlog_target_scale() const { return backlog_target_scale_; }
  // True once repeated drain failures indicate a buffer-filling competitor.
  bool in_competitive_mode() const { return backlog_target_scale_ >= 4.0; }
  const StateBlock& state_block() const { return state_block_; }
  const AstraeaHyperparameters& hyperparameters() const { return hp_; }

 private:
  void FinishDrain();

  std::shared_ptr<const Policy> policy_;
  AstraeaHyperparameters hp_;
  StateBlock state_block_;
  ActionHook hook_;
  Tracer* tracer_ = nullptr;
  int32_t trace_flow_id_ = -1;

  uint32_t mss_ = 1500;
  uint64_t cwnd_ = 0;
  bool slow_start_ = true;
  double last_action_ = 0.0;
  TimeNs srtt_hint_ = Milliseconds(40);

  // Base-RTT probe state (see AstraeaHyperparameters::probe_epoch).
  // last_min_refresh_ is the time of the most recent near-floor RTT sample;
  // with hp_.skip_drain_on_fresh_floor set, an epoch drain is skipped while
  // the floor is this fresh (0 = never refreshed).
  TimeNs last_min_refresh_ = 0;
  bool draining_ = false;
  TimeNs drain_until_ = 0;
  // Competitive-mode detection: a drain that empties the queue (an RTT sample
  // near the floor during the drain) halves the appetite back toward 1;
  // a failed drain — the queue is pinned by a buffer-filling competitor —
  // doubles it, Copa-style.
  bool drain_succeeded_ = false;
  int64_t last_drain_epoch_ = -1;
  double backlog_target_scale_ = 1.0;
};

}  // namespace astraea

#endif  // SRC_CORE_ASTRAEA_CONTROLLER_H_
