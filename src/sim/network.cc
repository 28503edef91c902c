#include "src/sim/network.h"

#include <cstdlib>
#include <string>
#include <utility>

#include "src/sim/invariants.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"

namespace astraea {

Network::Network(uint64_t seed) : rng_(seed), sample_timer_(&events_, this) {}

Network::~Network() = default;

size_t Network::AddLink(LinkConfig config) {
  ASTRAEA_CHECK(!started_);
  links_.push_back(std::make_unique<Link>(&events_, std::move(config), rng_.Fork(), &pool_));
  link_traces_.emplace_back();
  link_prev_delivered_.push_back(0);
  return links_.size() - 1;
}

int Network::AddFlow(FlowSpec spec) {
  ASTRAEA_CHECK(!started_);
  ASTRAEA_CHECK(spec.make_cc != nullptr);
  ASTRAEA_CHECK(!spec.link_path.empty());

  const int flow_id = static_cast<int>(flows_.size());
  FlowRecord record;
  record.spec = spec;

  // ACK return delay: one-way propagation back over the same distance plus
  // the flow's heterogeneity delay. Queuing happens only on the data path.
  TimeNs return_delay = spec.extra_one_way_delay;
  for (size_t idx : spec.link_path) {
    ASTRAEA_CHECK(idx < links_.size());
    return_delay += links_[idx]->config().propagation_delay;
  }

  // Receiver is created first (without its sender), so the data route can end
  // with it; the back-pointer is wired up right after the sender exists.
  record.receiver = std::make_unique<Receiver>(&events_, &pool_, nullptr, return_delay);

  Route route;
  for (size_t idx : spec.link_path) {
    route.push_back(links_[idx].get());
  }
  route.push_back(record.receiver.get());

  record.sender = std::make_unique<Sender>(&events_, &pool_, flow_id, std::move(route),
                                           spec.make_cc(), spec.sender);
  record.receiver->set_sender(record.sender.get());
  flows_.push_back(std::move(record));
  return flow_id;
}

void Network::EnableLinkSampling(TimeNs interval) {
  ASTRAEA_CHECK(!started_);
  sample_interval_ = interval;
}

void Network::SampleLinks() {
  const TimeNs now = events_.now();
  for (size_t i = 0; i < links_.size(); ++i) {
    link_traces_[i].queue_packets.Add(now, static_cast<double>(links_[i]->queue_packets()));
    const uint64_t delivered = links_[i]->delivered_bytes();
    const double mbps = ToMbps(static_cast<double>(delivered - link_prev_delivered_[i]) * 8.0 /
                               ToSeconds(sample_interval_));
    link_traces_[i].delivered_mbps.Add(now, mbps);
    link_prev_delivered_[i] = delivered;
  }
  sample_timer_.Arm(now + sample_interval_);
}

void Network::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  for (size_t i = 0; i < links_.size(); ++i) {
    links_[i]->set_tracer(tracer, static_cast<int32_t>(i));
  }
  for (auto& record : flows_) {
    record.sender->set_tracer(tracer);
  }
}

void Network::Run(TimeNs until) {
  if (!started_) {
    started_ = true;
    // CI hook: force every Record() path on without writing any file, to
    // verify tracing cannot perturb results (see .github/workflows/ci.yml).
    if (tracer_ == nullptr && std::getenv("ASTRAEA_FORCE_TRACE") != nullptr) {
      forced_tracer_ = std::make_unique<Tracer>("", Tracer::Format::kNone);
      SetTracer(forced_tracer_.get());
    }
    for (auto& record : flows_) {
      record.sender->StartAt(record.spec.start);
      if (record.spec.duration >= 0) {
        record.sender->StopAt(record.spec.start + record.spec.duration);
      }
    }
    if (sample_interval_ > 0) {
      sample_timer_.Arm(events_.now() + sample_interval_);
    }
  }
  events_.RunUntil(until);
  PublishPoolMetrics();

  if (invariants::Enabled()) {
    // End-of-run audit: full (deep) conservation recount on every link and
    // flow, plus the sender/receiver cross-check — the sender can never have
    // had more bytes ACKed than the receiver actually took delivery of.
    for (size_t i = 0; i < links_.size(); ++i) {
      links_[i]->VerifyInvariants("Network::Run", /*deep=*/true);
    }
    for (size_t i = 0; i < flows_.size(); ++i) {
      const FlowRecord& record = flows_[i];
      record.sender->VerifyInvariants("Network::Run", /*deep=*/true);
      if (record.sender->stats().bytes_acked > record.receiver->received_bytes()) {
        invariants::Report(
            "flow.ack_receipt_bound",
            "flow " + std::to_string(i) + ": sender has " +
                std::to_string(record.sender->stats().bytes_acked) +
                " B acked but receiver only took delivery of " +
                std::to_string(record.receiver->received_bytes()) + " B");
      }
    }
  }
}

void Network::PublishPoolMetrics() const {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.GetGauge("sim.pool.packets_live").Set(static_cast<double>(pool_.live()));
  metrics.GetGauge("sim.pool.packets_capacity").Set(static_cast<double>(pool_.capacity()));
  metrics.GetGauge("sim.pool.packets_recycled_total").Set(static_cast<double>(pool_.recycled()));
  metrics.GetGauge("sim.pool.events_pending").Set(static_cast<double>(events_.pending()));
  // Scheduler health: the timers registered, the heap's high-water size, and
  // the deepest constant-delay line (packets or ACKs in flight behind one
  // heap entry).
  metrics.GetGauge("sim.sched.timers").Set(static_cast<double>(events_.timer_count()));
  metrics.GetGauge("sim.sched.heap_max").Set(static_cast<double>(events_.heap_max()));
  metrics.GetGauge("sim.lines.items_max").Set(static_cast<double>(events_.line_items_max()));
  // Pre-register the invariant counters so a clean scrape shows explicit
  // zeros rather than missing keys (the checker only registers on first
  // violation).
  metrics.GetCounter("invariants.violations_total");
}

std::vector<int> Network::ActiveFlowIds() const {
  std::vector<int> ids;
  for (size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].sender->running()) {
      ids.push_back(static_cast<int>(i));
    }
  }
  return ids;
}

TimeNs Network::BaseRtt(int flow_id) const {
  const FlowRecord& record = flows_[flow_id];
  TimeNs prop = 0;
  for (size_t idx : record.spec.link_path) {
    prop += links_[idx]->config().propagation_delay;
  }
  // Data path propagation + (propagation + heterogeneity delay) on the return.
  return 2 * prop + record.spec.extra_one_way_delay;
}

}  // namespace astraea
