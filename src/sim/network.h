// Network: a runnable scenario — links, flows and their schedules.
//
// A Network owns the event queue, all links and all endpoints. Flows are
// described by FlowSpec (scheme factory, start time, duration, path through
// the links, RTT-heterogeneity extra delay) and started/stopped by their
// senders' start/stop timers. This is the Runtime module of the paper's training environment
// (§3.2); the Astraea-specific Observer/Enforcer layers live in src/core.

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/endpoint.h"
#include "src/sim/event_queue.h"
#include "src/sim/link.h"
#include "src/sim/packet_pool.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace astraea {

using CcFactory = std::function<std::unique_ptr<CongestionController>()>;

struct FlowSpec {
  std::string scheme = "unnamed";
  CcFactory make_cc;
  TimeNs start = 0;
  TimeNs duration = -1;              // -1: run until the scenario ends
  TimeNs extra_one_way_delay = 0;    // appended to the ACK return path
  std::vector<size_t> link_path{0};  // indices into the Network's links
  SenderConfig sender;
};

// Periodic samples of per-link state for utilization/queue plots.
struct LinkTrace {
  TimeSeries queue_packets;
  TimeSeries delivered_mbps;
};

class Network {
 public:
  explicit Network(uint64_t seed);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Adds a link; returns its index (used in FlowSpec::link_path).
  size_t AddLink(LinkConfig config);

  // Adds a flow; returns its id. All flows must be added before Run().
  int AddFlow(FlowSpec spec);

  // Begins periodic link sampling (call before Run).
  void EnableLinkSampling(TimeNs interval);

  // Attaches an event tracer to every link (enqueue/dequeue/drop), sender
  // (send/ack/loss/rto/cwnd) and controller (action). Tracing is purely
  // observational: the event schedule and RNG streams are untouched, so a
  // traced run is bit-identical to an untraced one. Null detaches.
  void SetTracer(Tracer* tracer);

  // Runs the scenario until `until` (simulated time).
  void Run(TimeNs until);

  EventQueue& events() { return events_; }
  const EventQueue& events() const { return events_; }
  PacketPool& packet_pool() { return pool_; }
  TimeNs now() const { return events_.now(); }

  size_t link_count() const { return links_.size(); }
  Link& link(size_t i) { return *links_[i]; }
  const Link& link(size_t i) const { return *links_[i]; }
  const LinkTrace& link_trace(size_t i) const { return link_traces_[i]; }

  size_t flow_count() const { return flows_.size(); }
  Sender& sender(int flow_id) { return *flows_[flow_id].sender; }
  const Sender& sender(int flow_id) const { return *flows_[flow_id].sender; }
  const FlowStats& flow_stats(int flow_id) const { return flows_[flow_id].sender->stats(); }
  const FlowSpec& flow_spec(int flow_id) const { return flows_[flow_id].spec; }

  // Flows currently transmitting.
  std::vector<int> ActiveFlowIds() const;

  // Sum of basic one-way propagation delays along a flow's path plus its ACK
  // return delay — i.e. the flow's base RTT (zero queuing).
  TimeNs BaseRtt(int flow_id) const;

 private:
  struct FlowRecord {
    FlowSpec spec;
    std::unique_ptr<Receiver> receiver;
    std::unique_ptr<Sender> sender;
  };

  void SampleLinks();

  // Publishes the sim.pool.*, sim.sched.* and sim.lines.items_max
  // gauges (and pre-registers invariants counters) to the global
  // MetricsRegistry; called at the end of every Run() so --metrics-out
  // scrapes see pool and scheduler health without extra plumbing.
  void PublishPoolMetrics() const;

  // Declared before links/flows so packets outlive the components that hold
  // refs into the pool during teardown, and the queue outlives every timer
  // (a link's or sender's timer detaches from it when destroyed).
  PacketPool pool_;
  EventQueue events_;
  Rng rng_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<LinkTrace> link_traces_;
  std::vector<uint64_t> link_prev_delivered_;
  std::vector<FlowRecord> flows_;
  TimeNs sample_interval_ = 0;
  Timer<Network, &Network::SampleLinks> sample_timer_;
  bool started_ = false;
  Tracer* tracer_ = nullptr;
  // Owned in-memory tracer when ASTRAEA_FORCE_TRACE is set (CI perturbation
  // check): exercises every Record() path without touching the filesystem.
  std::unique_ptr<Tracer> forced_tracer_;
};

}  // namespace astraea

#endif  // SRC_SIM_NETWORK_H_
