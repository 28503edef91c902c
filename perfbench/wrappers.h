// Timing wrappers installed only in traced runs, around the public interfaces
// of three layers: the Policy (src/core + src/nn), the CongestionController
// (src/core, installed with DumbbellScenario::AddFlowWithFactory) and the
// QueueDiscipline (src/sim, installed through DumbbellConfig::queue_factory).
// Each forwards every call unchanged and only reads the clock around it, so
// a traced simulation stays bit-identical to a plain one; the workload checks
// that through the outcome digest.

#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/span_log.h"
#include "src/core/policy.h"
#include "src/sim/congestion_controller.h"
#include "src/sim/queue_disc.h"

namespace perfbench {

struct SliceRecord {
  astraea::TimeNs sim_end;
  int64_t host_ns;
  uint64_t events;
  size_t pending;
};

// Counts of the sim Tracer's per-flow events, drained after every slice.
struct FlowEventCounts {
  uint64_t sent = 0;
  uint64_t lost_bytes = 0;
  uint64_t rto_fires = 0;
  bool overflowed = false;  // a slice recorded more events than the ring holds
};

// What a traced simulation records: the wrappers' spans and call aggregates,
// the sim-time slice timeline and the sim Tracer's per-flow counts. `slice`
// is the open slice span that MTP decisions nest under; `decision` the open
// decision span that policy calls nest under.
struct SimTrace {
  SpanLog spans;
  CallStats ack;
  CallStats loss;
  CallStats enqueue;
  CallStats dequeue;
  uint64_t drops = 0;
  std::vector<uint64_t> depth_after_enqueue;  // index = queued packets
  uint32_t slice = SpanLog::kNoParent;
  uint32_t decision = SpanLog::kNoParent;
  std::vector<SliceRecord> slices;
  FlowEventCounts flow_events;
};

class TimedPolicy final : public astraea::Policy {
 public:
  TimedPolicy(std::shared_ptr<const astraea::Policy> inner, SimTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  double Act(const astraea::StateView& view) const override {
    const uint32_t span = trace_->spans.Begin("policy.act", trace_->decision);
    const double action = inner_->Act(view);
    trace_->spans.End(span);
    return action;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const astraea::Policy> inner_;
  SimTrace* trace_;
};

class TimedController final : public astraea::CongestionController {
 public:
  TimedController(std::unique_ptr<astraea::CongestionController> inner, SimTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void OnFlowStart(astraea::TimeNs now, uint32_t mss) override { inner_->OnFlowStart(now, mss); }
  void OnAck(const astraea::AckEvent& ev) override {
    const int64_t t0 = NowNs();
    inner_->OnAck(ev);
    trace_->ack.Add(NowNs() - t0);
  }
  void OnLoss(const astraea::LossEvent& ev) override {
    const int64_t t0 = NowNs();
    inner_->OnLoss(ev);
    trace_->loss.Add(NowNs() - t0);
  }
  void OnMtpTick(const astraea::MtpReport& report) override {
    trace_->decision = trace_->spans.Begin("cc.decision", trace_->slice);
    inner_->OnMtpTick(report);
    trace_->spans.End(trace_->decision);
    trace_->decision = SpanLog::kNoParent;
  }
  uint64_t cwnd_bytes() const override { return inner_->cwnd_bytes(); }
  std::optional<double> pacing_bps() const override { return inner_->pacing_bps(); }
  std::string name() const override { return inner_->name(); }
  bool EcnCapable() const override { return inner_->EcnCapable(); }
  void set_tracer(astraea::Tracer* tracer, int32_t flow_id) override {
    inner_->set_tracer(tracer, flow_id);
  }

 private:
  std::unique_ptr<astraea::CongestionController> inner_;
  SimTrace* trace_;
};

class TimedQueue final : public astraea::QueueDiscipline {
 public:
  TimedQueue(std::unique_ptr<astraea::QueueDiscipline> inner, SimTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  bool Enqueue(astraea::PacketRef ref, astraea::TimeNs now) override {
    const int64_t t0 = NowNs();
    const bool accepted = inner_->Enqueue(ref, now);
    trace_->enqueue.Add(NowNs() - t0);
    trace_->drops += accepted ? 0 : 1;
    const size_t depth = inner_->queued_packets();
    if (depth >= trace_->depth_after_enqueue.size()) {
      trace_->depth_after_enqueue.resize(depth + 1, 0);
    }
    ++trace_->depth_after_enqueue[depth];
    return accepted;
  }
  std::optional<astraea::PacketRef> Dequeue(astraea::TimeNs now) override {
    const int64_t t0 = NowNs();
    std::optional<astraea::PacketRef> ref = inner_->Dequeue(now);
    trace_->dequeue.Add(NowNs() - t0);
    return ref;
  }
  uint64_t queued_bytes() const override { return inner_->queued_bytes(); }
  size_t queued_packets() const override { return inner_->queued_packets(); }
  uint64_t dropped_bytes() const override { return inner_->dropped_bytes(); }
  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }
  uint64_t RecountQueuedBytes() const override { return inner_->RecountQueuedBytes(); }
  void set_pool(astraea::PacketPool* pool) override {
    QueueDiscipline::set_pool(pool);
    inner_->set_pool(pool);
  }
  void set_tracer(astraea::Tracer* tracer, int32_t link_id) override {
    QueueDiscipline::set_tracer(tracer, link_id);
    inner_->set_tracer(tracer, link_id);
  }

 private:
  std::unique_ptr<astraea::QueueDiscipline> inner_;
  SimTrace* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
