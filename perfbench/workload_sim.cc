// The two paper-figure simulation workloads.
//
// fig6_staggered: paper Fig. 6, 3 Astraea flows with the distilled policy on
// 100 Mbps / 30 ms / 1 BDP DropTail, starting 40 s apart and running 120 s
// each. Flow-stop events far in the future stretch the scheduler's calendar,
// so the scheduler does most of the work and src/nn is idle.
//
// fig10_manyflow_mlp: paper Fig. 10, 50 Astraea flows driven by the shipped
// trained checkpoint (batch-1 Mlp::Infer per flow per MTP) on 600 Mbps /
// 20 ms / 1 BDP for 30 s. Events are dense and near-term, inference is near
// half the host time, and the policy's ~20% loss exercises the loss/RTO path.
//
// A plain run repeats the scenario (set-up, Network::Run, outcome checks),
// one child process per pass, for the measuring time. A traced run makes one
// plain pass and one pass with the wrappers of wrappers.h installed,
// Network::Run called in fixed sim-time slices and the simulator's own Tracer
// kept in memory; the two passes must produce the same outcome digest.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/harness/metrics.h"
#include "bench/harness/scenario.h"
#include "perfbench/report.h"
#include "perfbench/wrappers.h"
#include "src/serve/inference_server.h"
#include "src/sim/trace.h"

namespace perfbench {
namespace {

using astraea::TimeNs;

constexpr uint64_t kStartSeedStream = 0x9E4F6A10;  // flow start times
constexpr int kSetupSamples = 10;                  // extra set-ups per plain pass
constexpr size_t kTracerRing = size_t{1} << 17;    // sim Tracer events kept per slice

struct SimSpec {
  const char* name;
  astraea::RateBps bandwidth;
  TimeNs base_rtt;
  int flows;
  TimeNs until;
  TimeNs slice;  // traced run: sim time per Network::Run call
  bool staggered;       // fig6 schedule (else fig10's)
  bool trained_policy;  // shipped checkpoint (else the distilled policy)
  // Scenario draws per plain run, pass i running draw i % draws. fig10's
  // host cost varies ~20% with its random start times, so one run covers
  // several draws (all derived from --seed) and reports their median.
  int draws;
  // Windows of the figure benches (bench_fig6_convergence, bench_fig10_many_flows).
  TimeNs jain_begin;
  TimeNs jain_slot;
  TimeNs util_begin;
  TimeNs rtt_begin;
  // Output-check floors; 0 disables.
  double jain_floor;
  double util_floor;
};

const SimSpec kFig6 = {"fig6_staggered", astraea::Mbps(100), astraea::Milliseconds(30), 3,
                       astraea::Seconds(200.0), astraea::Seconds(1.0), true, false, 1,
                       0, astraea::Milliseconds(500), astraea::Seconds(1.0), 0,
                       // Today 0.998 and 0.994.
                       0.99, 0.98};
const SimSpec kFig10 = {"fig10_manyflow_mlp", astraea::Mbps(600), astraea::Milliseconds(20), 50,
                        astraea::Seconds(30.0), astraea::Milliseconds(250), false, true, 8,
                        astraea::Seconds(10.0), astraea::Seconds(1.0), astraea::Seconds(10.0),
                        astraea::Seconds(10.0), 0.0, 0.0};

struct FlowPlan {
  TimeNs start;
  TimeNs duration;
};

// Flow schedule. fig6: the paper's 0/40/80 s starts, 120 s each; nothing in
// it is random, so every seed runs the same simulation (the seed still goes
// to the Network). fig10: starts uniform in [0, 1] s from the seed, no stops.
std::vector<FlowPlan> PlanFlows(const SimSpec& spec, uint64_t seed) {
  astraea::Rng rng(astraea::Rng::DeriveSeed(kStartSeedStream, seed));
  std::vector<FlowPlan> plan;
  for (int i = 0; i < spec.flows; ++i) {
    if (spec.staggered) {
      plan.push_back({astraea::Seconds(40.0 * i), astraea::Seconds(120.0)});
    } else {
      plan.push_back({astraea::Seconds(rng.Uniform(0.0, 1.0)), -1});
    }
  }
  return plan;
}

// Buffer size DumbbellScenario derives from its config; the traced queue
// factory needs it before the scenario exists (checked against BufferBytes()).
uint64_t DumbbellBufferBytes(const astraea::DumbbellConfig& c) {
  return std::max<uint64_t>(
      static_cast<uint64_t>(c.buffer_bdp *
                            static_cast<double>(astraea::BdpBytes(c.bandwidth, c.base_rtt))),
      2 * 1500);
}

// Builds the scenario (the set-up the end-to-end `setup_s` times). With a
// trace, the queue, every controller and the policy are wrapped.
std::unique_ptr<astraea::DumbbellScenario> Build(const SimSpec& spec, uint64_t seed,
                                                 SimTrace* trace) {
  astraea::DumbbellConfig config;
  config.bandwidth = spec.bandwidth;
  config.base_rtt = spec.base_rtt;
  config.buffer_bdp = 1.0;
  config.seed = seed;
  if (trace != nullptr) {
    const uint64_t buffer = DumbbellBufferBytes(config);
    config.queue_factory = [trace, buffer](astraea::Rng) {
      return std::make_unique<TimedQueue>(std::make_unique<astraea::DropTailQueue>(buffer),
                                          trace);
    };
  }
  auto scenario = std::make_unique<astraea::DumbbellScenario>(config);

  std::shared_ptr<const astraea::Policy> policy;
  if (spec.trained_policy) {
    policy = std::make_shared<astraea::MlpPolicy>(
        astraea::serve::LoadActorFile("models/astraea_policy_trained.ckpt"));
  } else {
    policy = std::make_shared<astraea::DistilledPolicy>();
  }
  astraea::SchemeOptions& options = scenario->scheme_options();
  options.astraea_policy =
      trace != nullptr ? std::make_shared<TimedPolicy>(policy, trace) : policy;

  for (const FlowPlan& flow : PlanFlows(spec, seed)) {
    if (trace == nullptr) {
      scenario->AddFlow("astraea", flow.start, flow.duration);
    } else {
      astraea::CcFactory inner = astraea::MakeSchemeFactory("astraea", &options);
      scenario->AddFlowWithFactory(
          "astraea",
          [inner, trace] { return std::make_unique<TimedController>(inner(), trace); },
          flow.start, flow.duration);
    }
  }
  return scenario;
}

struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;  // host time inside Network::Run
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t decisions = 0;  // MTP controller decisions (one per flow per MTP)
  double jain = 0.0;
  double utilization = 0.0;
  double mean_rtt_ms = 0.0;
  double loss_pct = 0.0;
  uint64_t bytes_lost = 0;
  uint32_t conservation_errors = 0;  // flows with acked + lost > sent
  char first_conservation_error[160] = {};
  // Scheduler and pool state at the end of the run.
  uint64_t rebuilds = 0;
  uint64_t rotations = 0;
  size_t buckets = 0;
  size_t event_slots = 0;
  size_t packet_slots = 0;
  bool buffer_matches = true;  // traced queue capacity == scenario buffer
  double peak_rss_mb = 0.0;    // of the process that ran the pass
};
// Plain passes send their Outcome back from a child process as raw bytes.
static_assert(std::is_trivially_copyable_v<Outcome>);

void DrainTracer(const astraea::Tracer& tracer, uint64_t* seen, FlowEventCounts* counts) {
  const uint64_t fresh = tracer.recorded() - *seen;
  *seen = tracer.recorded();
  if (fresh == 0) {
    return;
  }
  const std::vector<astraea::TraceEvent> ring = tracer.BufferedEvents();
  if (fresh > ring.size()) {
    counts->overflowed = true;
    return;
  }
  for (size_t i = ring.size() - fresh; i < ring.size(); ++i) {
    const astraea::TraceEvent& ev = ring[i];
    if (ev.type == astraea::TraceEventType::kSend) {
      ++counts->sent;
    } else if (ev.type == astraea::TraceEventType::kLoss) {
      counts->lost_bytes += static_cast<uint64_t>(ev.a);
    } else if (ev.type == astraea::TraceEventType::kRtoFire) {
      ++counts->rto_fires;
      counts->lost_bytes += static_cast<uint64_t>(ev.a);
    }
  }
}

Outcome RunOnce(const SimSpec& spec, uint64_t seed, SimTrace* trace) {
  Outcome out;
  const auto setup_start = Clock::now();
  std::unique_ptr<astraea::DumbbellScenario> scenario = Build(spec, seed, trace);
  out.setup_s = SecondsSince(setup_start);
  astraea::Network& net = scenario->network();

  if (trace == nullptr) {
    const auto run_start = Clock::now();
    net.Run(spec.until);
    out.run_s = SecondsSince(run_start);
  } else {
    out.buffer_matches =
        scenario->bottleneck().queue().capacity_bytes() == scenario->BufferBytes();
    astraea::Tracer tracer("", astraea::Tracer::Format::kNone, kTracerRing);
    net.SetTracer(&tracer);
    uint64_t seen = 0;
    const uint32_t run_span = trace->spans.Begin("sim.run", SpanLog::kNoParent);
    for (TimeNs end = spec.slice;; end += spec.slice) {
      end = std::min(end, spec.until);
      const uint64_t events_before = net.events().executed();
      trace->slice = trace->spans.Begin("sim.slice", run_span);
      const int64_t t0 = NowNs();
      net.Run(end);
      const int64_t host_ns = NowNs() - t0;
      trace->spans.End(trace->slice);
      out.run_s += static_cast<double>(host_ns) * 1e-9;
      trace->slices.push_back(
          {end, host_ns, net.events().executed() - events_before, net.events().pending()});
      DrainTracer(tracer, &seen, &trace->flow_events);
      if (end == spec.until) {
        break;
      }
    }
    trace->slice = SpanLog::kNoParent;
    trace->spans.End(run_span);
    net.SetTracer(nullptr);
  }

  out.events = net.events().executed();
  out.rebuilds = net.events().calendar_rebuilds();
  out.rotations = net.events().calendar_rotations();
  out.buckets = net.events().bucket_count();
  out.event_slots = net.events().slot_capacity();
  out.packet_slots = net.packet_pool().capacity();
  uint64_t digest = 0xA57AEA0B00000000ULL;
  for (int flow = 0; flow < static_cast<int>(net.flow_count()); ++flow) {
    const astraea::FlowStats& s = net.flow_stats(flow);
    digest = astraea::MixFingerprint(digest, s.bytes_sent);
    digest = astraea::MixFingerprint(digest, s.bytes_acked);
    digest = astraea::MixFingerprint(digest, s.bytes_lost);
    out.decisions += s.throughput_mbps.points().size();
    out.bytes_lost += s.bytes_lost;
    if (s.bytes_acked + s.bytes_lost > s.bytes_sent && out.conservation_errors++ == 0) {
      std::snprintf(out.first_conservation_error, sizeof(out.first_conservation_error),
                    "flow %d: acked %llu + lost %llu > sent %llu", flow,
                    static_cast<unsigned long long>(s.bytes_acked),
                    static_cast<unsigned long long>(s.bytes_lost),
                    static_cast<unsigned long long>(s.bytes_sent));
    }
  }
  out.digest = astraea::MixFingerprint(digest, out.events);
  out.jain = astraea::AverageJain(net, spec.jain_begin, spec.until, spec.jain_slot);
  out.utilization = astraea::LinkUtilization(net, 0, spec.util_begin, spec.until);
  out.mean_rtt_ms = astraea::MeanRttMs(net, spec.rtt_begin, spec.until);
  out.loss_pct = 100.0 * astraea::AggregateLossRatio(net);
  return out;
}

// Runs one plain pass in a forked child, so every pass starts from a fresh
// heap as a one-scenario process does (in one long-lived process, later fig6
// passes ran up to ~20% slower than the first as the heap aged). The child
// also times kSetupSamples extra set-ups; the pass reports their median.
Outcome RunInChild(const SimSpec& spec, uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int status = 1;
    try {
      std::vector<double> setup;
      for (int i = 0; i < kSetupSamples; ++i) {
        const auto t0 = Clock::now();
        std::unique_ptr<astraea::DumbbellScenario> scenario = Build(spec, seed, nullptr);
        setup.push_back(SecondsSince(t0));
      }
      Outcome out = RunOnce(spec, seed, nullptr);
      setup.push_back(out.setup_s);
      out.setup_s = Median(setup);
      out.peak_rss_mb = PeakRssMb();
      status = write(fds[1], &out, sizeof(out)) == static_cast<ssize_t>(sizeof(out)) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: pass failed: %s\n", e.what());
    }
    _exit(status);
  }
  close(fds[1]);
  Outcome out;
  size_t got = 0;
  while (got < sizeof(out)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&out) + got, sizeof(out) - got);
    if (n <= 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(out) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a simulation pass exited without a result");
  }
  return out;
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// The output checks every pass gets.
void CheckOutcome(const SimSpec& spec, const Outcome& out, const std::string& pass, Result* r) {
  r->Check(out.conservation_errors == 0,
           pass + ": bytes_acked + bytes_lost <= bytes_sent for every flow" +
               (out.conservation_errors == 0
                    ? ""
                    : " (" + std::string(out.first_conservation_error) + ")"));
  if (spec.jain_floor > 0.0) {
    r->Check(out.jain >= spec.jain_floor,
             pass + ": jain " + Fixed(out.jain, 4) + " >= floor " + Fixed(spec.jain_floor, 2));
  }
  if (spec.util_floor > 0.0) {
    r->Check(out.utilization >= spec.util_floor, pass + ": utilization " +
                                                     Fixed(out.utilization, 4) + " >= floor " +
                                                     Fixed(spec.util_floor, 2));
  }
}

uint64_t DrawSeed(uint64_t seed, int draw) {
  return astraea::Rng::DeriveSeed(seed, static_cast<uint64_t>(draw));
}

Result PlainRun(const SimSpec& spec, const Options& options) {
  Result r;
  std::vector<Outcome> passes;
  const auto start = Clock::now();
  do {
    const uint64_t seed = DrawSeed(options.seed, static_cast<int>(passes.size()) % spec.draws);
    passes.push_back(RunInChild(spec, seed));
  } while (SecondsSince(start) < options.seconds ||
           passes.size() < static_cast<size_t>(spec.draws));

  std::vector<double> setup;
  double peak_rss_mb = 0.0;
  std::vector<double> decision_rates;
  std::vector<double> sim_rates;
  uint64_t digest = 0;
  for (size_t i = 0; i < passes.size(); ++i) {
    const Outcome& p = passes[i];
    const Outcome& first = passes[i % static_cast<size_t>(spec.draws)];
    setup.push_back(p.setup_s);
    peak_rss_mb = std::max(peak_rss_mb, p.peak_rss_mb);
    decision_rates.push_back(static_cast<double>(p.decisions) / p.run_s);
    sim_rates.push_back(astraea::ToSeconds(spec.until) / p.run_s);
    CheckOutcome(spec, p, "pass " + std::to_string(i), &r);
    r.Check(p.digest == first.digest, "pass " + std::to_string(i) + ": digest " + Hex(p.digest) +
                                          " equals the first pass of its draw");
    if (&p == &first) {
      digest = astraea::MixFingerprint(digest, p.digest);
      r.Note("draw " + std::to_string(i) + " digest " + Hex(p.digest) +
             " (per-flow bytes sent/acked/lost + " + std::to_string(p.events) + " events)");
    }
  }
  // Outcome figures are means over the draws: deterministic for a seed.
  Outcome mean;
  for (int d = 0; d < spec.draws; ++d) {
    const Outcome& p = passes[static_cast<size_t>(d)];
    mean.jain += p.jain / spec.draws;
    mean.utilization += p.utilization / spec.draws;
    mean.mean_rtt_ms += p.mean_rtt_ms / spec.draws;
    mean.loss_pct += p.loss_pct / spec.draws;
  }
  const uint64_t draws = static_cast<uint64_t>(spec.draws);
  r.Add("setup_s", "s", "lower", Median(setup), setup.size() * (kSetupSamples + 1));
  r.Add("peak_rss_mb", "MB", "lower", peak_rss_mb, passes.size());
  r.Add("decisions_per_s", "1/s", "higher", Median(decision_rates), decision_rates.size());
  r.Add("sim_s_per_s", "sim-s/s", "higher", Median(sim_rates), sim_rates.size());
  r.Add("jain", "index", "higher", mean.jain, draws);
  r.Add("utilization", "fraction", "higher", mean.utilization, draws);
  r.Add("mean_rtt_ms", "ms", "lower", mean.mean_rtt_ms, draws);
  r.Add("loss_pct", "%", "lower", mean.loss_pct, draws);
  std::string rates = "pass decisions_per_s:";
  for (double rate : decision_rates) {
    rates += " " + std::to_string(static_cast<int64_t>(rate));
  }
  r.Note(rates);
  r.Note("digest " + Hex(digest) + " (draw digests combined)");
  return r;
}

// Condenses the per-slice timeline into ~10 rows for the console; the full
// timeline goes to the trace file.
void NoteTimeline(const std::vector<SliceRecord>& slices, Result* r) {
  r->Note("slice timeline: sim_end_s host_ms events pending_max ns_per_event");
  const size_t group = std::max<size_t>(1, (slices.size() + 9) / 10);
  for (size_t i = 0; i < slices.size(); i += group) {
    int64_t host_ns = 0;
    uint64_t events = 0;
    size_t pending = 0;
    const size_t end = std::min(slices.size(), i + group);
    for (size_t j = i; j < end; ++j) {
      host_ns += slices[j].host_ns;
      events += slices[j].events;
      pending = std::max(pending, slices[j].pending);
    }
    char line[160];
    std::snprintf(line, sizeof(line), "  %8.2f %9.1f %9llu %6zu %8.1f",
                  astraea::ToSeconds(slices[end - 1].sim_end), static_cast<double>(host_ns) * 1e-6,
                  static_cast<unsigned long long>(events), pending,
                  events > 0 ? static_cast<double>(host_ns) / static_cast<double>(events) : 0.0);
    r->Note(line);
  }
}

Result TracedRun(const SimSpec& spec, const Options& options) {
  Result r;
  // Draw 0 of the plain run's draws.
  const uint64_t seed = DrawSeed(options.seed, 0);
  const Outcome plain = RunInChild(spec, seed);
  SimTrace trace;
  const Outcome traced = RunOnce(spec, seed, &trace);

  CheckOutcome(spec, plain, "plain pass", &r);
  CheckOutcome(spec, traced, "traced pass", &r);
  r.Check(traced.digest == plain.digest, "traced digest " + Hex(traced.digest) +
                                             " equals plain digest " + Hex(plain.digest));
  r.Check(traced.buffer_matches, "traced DropTail capacity equals the scenario buffer");
  r.Check(!trace.flow_events.overflowed, "sim Tracer ring held every slice's events");
  r.Check(trace.flow_events.lost_bytes == traced.bytes_lost,
          "Tracer loss/RTO bytes " + std::to_string(trace.flow_events.lost_bytes) +
              " equal FlowStats bytes_lost " + std::to_string(traced.bytes_lost));
  r.Note("digest plain " + Hex(plain.digest) + " traced " + Hex(traced.digest));

  const std::vector<double> decisions = trace.spans.DurationsNs("cc.decision");
  const std::vector<double> acts = trace.spans.DurationsNs("policy.act");
  const double decision_s = trace.spans.TotalSeconds("cc.decision");
  const double act_s = trace.spans.TotalSeconds("policy.act");
  const double qdisc_s = trace.enqueue.seconds() + trace.dequeue.seconds();
  const double core_s =
      traced.run_s - trace.ack.seconds() - trace.loss.seconds() - decision_s - qdisc_s;
  size_t pending_max = 0;
  for (const SliceRecord& s : trace.slices) {
    pending_max = std::max(pending_max, s.pending);
  }
  uint64_t enqueues = 0;
  double depth_p95 = 0.0;
  for (uint64_t c : trace.depth_after_enqueue) {
    enqueues += c;
  }
  uint64_t seen = 0;
  for (size_t depth = 0; depth < trace.depth_after_enqueue.size(); ++depth) {
    seen += trace.depth_after_enqueue[depth];
    if (static_cast<double>(seen) >= 0.95 * static_cast<double>(enqueues)) {
      depth_p95 = static_cast<double>(depth);
      break;
    }
  }
  const double events = static_cast<double>(traced.events);

  r.Add("sched.events", "count", "lower", events, 1);
  r.Add("sched.events_per_acked_pkt", "events/pkt", "lower",
        trace.ack.count > 0 ? events / static_cast<double>(trace.ack.count) : 0.0, 1);
  r.Add("sched.ns_per_event", "ns", "lower", events > 0 ? core_s * 1e9 / events : 0.0, 1);
  r.Add("sched.pending_max", "count", "lower", static_cast<double>(pending_max),
        trace.slices.size());
  r.Add("sched.rebuilds", "count", "lower", static_cast<double>(plain.rebuilds), 1);
  r.Add("sched.rotations", "count", "lower", static_cast<double>(plain.rotations), 1);
  r.Add("sched.buckets", "count", "lower", static_cast<double>(plain.buckets), 1);
  r.Add("sim.core_self_s", "s", "lower", core_s, 1);
  r.Add("pool.event_slots", "count", "lower", static_cast<double>(plain.event_slots), 1);
  r.Add("pool.packet_slots", "count", "lower", static_cast<double>(plain.packet_slots), 1);
  r.Add("qdisc.enqueues", "count", "lower", static_cast<double>(trace.enqueue.count), 1);
  r.Add("qdisc.drops", "count", "lower", static_cast<double>(trace.drops), 1);
  r.Add("qdisc.self_s", "s", "lower", qdisc_s, trace.enqueue.count + trace.dequeue.count);
  r.Add("qdisc.depth_p95_pkts", "pkts", "lower", depth_p95, enqueues);
  r.Add("cc.acks", "count", "lower", static_cast<double>(trace.ack.count), 1);
  r.Add("cc.ack_self_s", "s", "lower", trace.ack.seconds(), trace.ack.count);
  r.Add("cc.losses", "count", "lower", static_cast<double>(trace.loss.count), 1);
  r.Add("cc.loss_self_s", "s", "lower", trace.loss.seconds(), trace.loss.count);
  r.Add("cc.decisions", "count", "higher", static_cast<double>(decisions.size()), 1);
  r.Add("cc.decision_p50_ns", "ns", "lower", Quantile(decisions, 0.50), decisions.size());
  r.Add("cc.decision_p99_ns", "ns", "lower", Quantile(decisions, 0.99), decisions.size());
  r.Add("cc.decision_self_s", "s", "lower", decision_s - act_s, decisions.size());
  r.Add("policy.acts", "count", "higher", static_cast<double>(acts.size()), 1);
  r.Add("policy.act_self_s", "s", "lower", act_s, acts.size());
  r.Add("policy.act_p50_ns", "ns", "lower", Quantile(acts, 0.50), acts.size());
  r.Add("policy.act_p99_ns", "ns", "lower", Quantile(acts, 0.99), acts.size());
  r.Add("flow.sent_pkts", "count", "higher", static_cast<double>(trace.flow_events.sent), 1);
  r.Add("flow.lost_pkts", "count", "lower",
        static_cast<double>(trace.flow_events.lost_bytes) / astraea::SenderConfig{}.mss, 1);
  r.Add("flow.rto_fires", "count", "lower", static_cast<double>(trace.flow_events.rto_fires), 1);
  r.Add("trace.overhead_ratio", "ratio", "lower", traced.run_s / plain.run_s, 1);

  char shares[200];
  std::snprintf(shares, sizeof(shares),
                "host time in Network::Run %.3f s: sim core %.1f%%, qdisc %.1f%%, cc ack/loss "
                "%.1f%%, cc decision %.1f%%, policy %.1f%%",
                traced.run_s, 100 * core_s / traced.run_s, 100 * qdisc_s / traced.run_s,
                100 * (trace.ack.seconds() + trace.loss.seconds()) / traced.run_s,
                100 * (decision_s - act_s) / traced.run_s, 100 * act_s / traced.run_s);
  r.Note(shares);
  NoteTimeline(trace.slices, &r);

  std::vector<std::string> timeline;
  for (const SliceRecord& s : trace.slices) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"slice_end_sim_s\":%.3f,\"host_ms\":%.3f,\"events\":%llu,\"pending\":%zu}",
                  astraea::ToSeconds(s.sim_end), static_cast<double>(s.host_ns) * 1e-6,
                  static_cast<unsigned long long>(s.events), s.pending);
    timeline.push_back(line);
  }
  const std::string path = TraceFilePath(spec.name, options.seed);
  r.Check(trace.spans.WriteJsonl(path,
                                 {{"cc.ack", &trace.ack},
                                  {"cc.loss", &trace.loss},
                                  {"qdisc.enqueue", &trace.enqueue},
                                  {"qdisc.dequeue", &trace.dequeue}},
                                 timeline),
          "spans written to " + path);
  r.Note("spans: " + path);
  return r;
}

Result RunSim(const SimSpec& spec, const Options& options) {
  return options.trace ? TracedRun(spec, options) : PlainRun(spec, options);
}

}  // namespace

Result RunFig6Staggered(const Options& options) { return RunSim(kFig6, options); }
Result RunFig10ManyflowMlp(const Options& options) { return RunSim(kFig10, options); }

}  // namespace perfbench
