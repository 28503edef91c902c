// Million-flow simulator-core scaling. Two parts:
//
//  1. Scheduler microbench: the in-tree EventQueue (owner-held timers over a
//     binary heap) against the original std::function heap scheduler
//     (bench/harness/heap_event_queue.h) on a sim-shaped timer workload —
//     per-flow self-re-arming ack timers, and a variant where every ack also
//     re-arms the flow's RTO timer (the seed heap cancels and reschedules a
//     closure instead). Both queues run the identical deterministic event
//     sequence; a digest over the first `target` firings cross-checks that the
//     speedup is not a behaviour change. Slow configurations are wall-clock
//     capped and reported as such.
//
//  2. End-to-end sharded scenarios: RunShardedDumbbell at 1k/10k/100k/1M
//     total flows (cubic, independent bottlenecks), reporting events/sec and
//     flow-seconds/sec, plus a 1-vs-N-worker fingerprint check proving the
//     sharded aggregate is worker-count invariant.
//
// Prints a table and emits BENCH_sim_scale.json (--out=PATH overrides).
// `--quick` restricts both parts to the 1k/10k sizes for CI smoke.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench/harness/heap_event_queue.h"
#include "bench/harness/scenario.h"
#include "bench/harness/table.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace astraea {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t MixDigest(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

// Per-flow timer churn mirroring the sender: an ack-clocked timer firing
// every ~[50us, 2ms] (deterministic per-flow LCG), and in churn mode an RTO
// timer at +300ms that every firing moves later — so stale RTO entries
// dominate, which is precisely where the seed heap's linear cancel scan
// collapses and the in-tree queue's re-arm (the old entry turns dead and is
// dropped lazily) does not. One driver per queue runs the same sequence.
class FlowClocks {
 public:
  FlowClocks(size_t flows, uint64_t digest_events) : digest_events_(digest_events), prng_(flows) {
    for (size_t i = 0; i < flows; ++i) {
      prng_[i] = Rng::DeriveSeed(0xBE9C5CA1EULL, i);
    }
  }

  uint64_t digest() const { return digest_; }

 protected:
  static constexpr TimeNs kRtoDelay = Milliseconds(300);

  // Folds an ack firing of `flow` at `now` into the digest.
  void Record(TimeNs now, size_t flow) {
    if (fires_ < digest_events_) {
      digest_ = MixDigest(digest_, (static_cast<uint64_t>(now) << 8) ^ flow);
    }
    ++fires_;
  }

  TimeNs NextDelay(size_t flow) {
    uint64_t& x = prng_[flow];
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return Microseconds(50) + static_cast<TimeNs>((x >> 33) % 1'950'000);
  }

 private:
  const uint64_t digest_events_;
  std::vector<uint64_t> prng_;
  uint64_t fires_ = 0;
  uint64_t digest_ = 0;
};

// The in-tree queue: each flow owns an ack timer and an RTO timer, both
// re-armed in place.
class TimerWorkload : public FlowClocks {
 public:
  TimerWorkload(size_t flows, uint64_t digest_events, bool rto_churn)
      : FlowClocks(flows, digest_events), rto_churn_(rto_churn) {
    for (size_t i = 0; i < flows; ++i) {
      Flow& flow = flows_.emplace_back(this, i);
      flow.ack.Arm(queue_.now() + NextDelay(i));
      if (rto_churn_) {
        flow.rto.Arm(queue_.now() + kRtoDelay);
      }
    }
  }

  EventQueue& queue() { return queue_; }

 private:
  struct Flow {
    Flow(TimerWorkload* owner, size_t i)
        : workload(owner), index(i), ack(&owner->queue_, this), rto(&owner->queue_, this) {}
    void AckFired() { workload->Fire(*this); }
    void RtoFired() {}

    TimerWorkload* workload;
    size_t index;
    Timer<Flow, &Flow::AckFired> ack;
    Timer<Flow, &Flow::RtoFired> rto;
  };

  void Fire(Flow& flow) {
    Record(queue_.now(), flow.index);
    if (rto_churn_) {
      flow.rto.Arm(queue_.now() + kRtoDelay);
    }
    flow.ack.Arm(queue_.now() + NextDelay(flow.index));
  }

  EventQueue queue_;  // declared first: the flows' timers must not outlive it
  const bool rto_churn_;
  std::deque<Flow> flows_;
};

// The seed heap: closures, and the RTO is cancelled and rescheduled.
class SeedHeapWorkload : public FlowClocks {
 public:
  SeedHeapWorkload(size_t flows, uint64_t digest_events, bool rto_churn)
      : FlowClocks(flows, digest_events), rto_churn_(rto_churn), rto_(flows, 0) {
    for (size_t i = 0; i < flows; ++i) {
      ScheduleAck(i);
      if (rto_churn_) {
        rto_[i] = queue_.Schedule(queue_.now() + kRtoDelay, [] {});
      }
    }
  }

  SeedHeapEventQueue& queue() { return queue_; }

 private:
  void ScheduleAck(size_t flow) {
    queue_.ScheduleAfter(NextDelay(flow), [this, flow] { Fire(flow); });
  }

  void Fire(size_t flow) {
    Record(queue_.now(), flow);
    if (rto_churn_) {
      queue_.Cancel(rto_[flow]);
      rto_[flow] = queue_.ScheduleAfter(kRtoDelay, [] {});
    }
    ScheduleAck(flow);
  }

  SeedHeapEventQueue queue_;
  const bool rto_churn_;
  std::vector<uint64_t> rto_;
};

struct SchedulerRun {
  uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  bool capped = false;       // hit the wall-clock cap before `target` events
  uint64_t digest = 0;
};

template <typename Workload>
SchedulerRun DriveScheduler(size_t flows, uint64_t target, double wall_cap_s,
                            bool rto_churn) {
  Workload workload(flows, target, rto_churn);
  auto& q = workload.queue();
  const auto start = Clock::now();
  while (q.executed() < target) {
    q.RunUntil(q.now() + Milliseconds(1));
    if (SecondsSince(start) > wall_cap_s && q.executed() < target) {
      break;
    }
  }
  SchedulerRun run;
  run.seconds = SecondsSince(start);
  run.events = q.executed();
  run.events_per_sec = static_cast<double>(run.events) / run.seconds;
  run.capped = run.events < target;
  run.digest = workload.digest();
  return run;
}

struct SchedulerRow {
  size_t flows = 0;
  const char* workload = nullptr;
  SchedulerRun event_queue;
  SchedulerRun seed_heap;
  double speedup = 0.0;
  bool digest_match = false;  // only meaningful when neither run was capped
};

struct EndToEndRow {
  size_t total_flows = 0;
  size_t shards = 0;
  size_t flows_per_shard = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  uint64_t events = 0;
  double events_per_sec = 0.0;
  double flow_seconds_per_sec = 0.0;
  size_t max_packet_slots = 0;
  uint64_t fingerprint = 0;
};

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_sim_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  const bool quick = QuickMode(argc, argv);
  PrintBenchHeader("SimScale",
                   "Timer event queue vs seed heap; sharded million-flow scenarios");

  // ---- Part 1: scheduler microbench.
  const std::vector<size_t> sched_sizes =
      quick ? std::vector<size_t>{1'000, 10'000}
            : std::vector<size_t>{1'000, 10'000, 100'000, 1'000'000};
  const double wall_cap_s = quick ? 5.0 : 10.0;
  std::vector<SchedulerRow> sched_rows;
  for (const bool churn : {true, false}) {
    for (const size_t flows : sched_sizes) {
      // Enough events for a stable rate without dwarfing setup; ~2 ack
      // rounds per flow at the largest sizes.
      const uint64_t target =
          std::max<uint64_t>(200'000, std::min<uint64_t>(20 * flows, 2'000'000));
      SchedulerRow row;
      row.flows = flows;
      row.workload = churn ? "rto_churn" : "steady";
      row.event_queue = DriveScheduler<TimerWorkload>(flows, target, wall_cap_s, churn);
      row.seed_heap = DriveScheduler<SeedHeapWorkload>(flows, target, wall_cap_s, churn);
      row.speedup = row.event_queue.events_per_sec / row.seed_heap.events_per_sec;
      row.digest_match = !row.event_queue.capped && !row.seed_heap.capped &&
                         row.event_queue.digest == row.seed_heap.digest;
      sched_rows.push_back(row);
      std::printf("  scheduler %-9s %8zu flows: event queue %10.0f ev/s, seed heap %10.0f"
                  " ev/s%s (%.1fx)%s\n",
                  row.workload, flows, row.event_queue.events_per_sec,
                  row.seed_heap.events_per_sec, row.seed_heap.capped ? " [capped]" : "",
                  row.speedup,
                  row.digest_match ? "" : (row.seed_heap.capped || row.event_queue.capped
                                               ? ""
                                               : "  DIGEST MISMATCH"));
      std::fflush(stdout);
    }
  }

  // ---- Part 2: end-to-end sharded scenarios.
  struct Shape {
    size_t total, shards, per_shard;
    double sim_seconds;
  };
  const std::vector<Shape> shapes =
      quick ? std::vector<Shape>{{1'000, 10, 100, 0.5}, {10'000, 100, 100, 0.2}}
            : std::vector<Shape>{{1'000, 10, 100, 2.0},
                                 {10'000, 100, 100, 1.0},
                                 {100'000, 1'000, 100, 0.5},
                                 {1'000'000, 10'000, 100, 0.2}};
  std::vector<EndToEndRow> e2e_rows;
  for (const Shape& shape : shapes) {
    ShardedDumbbellConfig config;
    config.scheme = "cubic";
    config.shards = shape.shards;
    config.flows_per_shard = shape.per_shard;
    config.flow_duration = Seconds(shape.sim_seconds);
    config.workers = ThreadPool::DefaultWorkerCount();
    const auto start = Clock::now();
    const ShardedRunResult result = RunShardedDumbbell(config);
    EndToEndRow row;
    row.total_flows = shape.total;
    row.shards = shape.shards;
    row.flows_per_shard = shape.per_shard;
    row.sim_seconds = shape.sim_seconds;
    row.wall_seconds = SecondsSince(start);
    row.events = result.events_executed;
    row.events_per_sec = static_cast<double>(row.events) / row.wall_seconds;
    row.flow_seconds_per_sec = result.flow_seconds / row.wall_seconds;
    row.max_packet_slots = result.max_packet_slots;
    row.fingerprint = result.fingerprint;
    e2e_rows.push_back(row);
    std::printf("  end-to-end %8zu flows (%5zu shards x %zu): %10.0f ev/s, %8.1f"
                " flow-s/s, max pool %zu slots\n",
                row.total_flows, row.shards, row.flows_per_shard, row.events_per_sec,
                row.flow_seconds_per_sec, row.max_packet_slots);
    std::fflush(stdout);
  }

  // ---- Worker-count invariance: the sharded aggregate must be bit-identical
  // whether shards run serially or across the pool.
  ShardedDumbbellConfig det_config;
  det_config.scheme = "cubic";
  det_config.shards = 8;
  det_config.flows_per_shard = 20;
  det_config.flow_duration = Seconds(0.3);
  det_config.workers = 1;
  const ShardedRunResult serial = RunShardedDumbbell(det_config);
  det_config.workers = 4;
  const ShardedRunResult parallel = RunShardedDumbbell(det_config);
  const bool determinism_ok = serial.fingerprint == parallel.fingerprint &&
                              serial.events_executed == parallel.events_executed &&
                              serial.bytes_acked == parallel.bytes_acked;

  ConsoleTable table({"metric", "value"});
  for (const SchedulerRow& row : sched_rows) {
    table.AddRow({"sched " + std::string(row.workload) + " " + std::to_string(row.flows) +
                      " flows speedup",
                  ConsoleTable::Num(row.speedup, 1) +
                      (row.seed_heap.capped ? " (heap capped)" : "")});
  }
  for (const EndToEndRow& row : e2e_rows) {
    table.AddRow({"e2e " + std::to_string(row.total_flows) + " flows (Mev/s)",
                  ConsoleTable::Num(row.events_per_sec / 1e6)});
  }
  table.AddRow({"1-vs-4-worker shard aggregate", determinism_ok ? "bit-identical" : "DIVERGED"});
  table.Print();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"quick\": %s,\n  \"scheduler\": [\n", quick ? "true" : "false");
  for (size_t i = 0; i < sched_rows.size(); ++i) {
    const SchedulerRow& row = sched_rows[i];
    std::fprintf(
        out,
        "    {\"flows\": %zu, \"workload\": \"%s\",\n"
        "     \"event_queue\": {\"events\": %llu, \"seconds\": %.3f, \"events_per_sec\": %.0f,"
        " \"capped\": %s},\n"
        "     \"seed_heap\": {\"events\": %llu, \"seconds\": %.3f, \"events_per_sec\": %.0f,"
        " \"capped\": %s},\n"
        "     \"speedup\": %.2f, \"digest_match\": %s}%s\n",
        row.flows, row.workload, static_cast<unsigned long long>(row.event_queue.events),
        row.event_queue.seconds, row.event_queue.events_per_sec,
        row.event_queue.capped ? "true" : "false",
        static_cast<unsigned long long>(row.seed_heap.events), row.seed_heap.seconds,
        row.seed_heap.events_per_sec, row.seed_heap.capped ? "true" : "false", row.speedup,
        row.digest_match ? "true" : "false", i + 1 < sched_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"end_to_end\": [\n");
  for (size_t i = 0; i < e2e_rows.size(); ++i) {
    const EndToEndRow& row = e2e_rows[i];
    std::fprintf(out,
                 "    {\"flows\": %zu, \"shards\": %zu, \"flows_per_shard\": %zu,"
                 " \"sim_seconds_per_flow\": %.2f,\n"
                 "     \"events\": %llu, \"wall_seconds\": %.3f, \"events_per_sec\": %.0f,"
                 " \"flow_seconds_per_sec\": %.1f,\n"
                 "     \"max_packet_pool_slots\": %zu, \"fingerprint\": \"%016llx\"}%s\n",
                 row.total_flows, row.shards, row.flows_per_shard, row.sim_seconds,
                 static_cast<unsigned long long>(row.events), row.wall_seconds,
                 row.events_per_sec, row.flow_seconds_per_sec, row.max_packet_slots,
                 static_cast<unsigned long long>(row.fingerprint),
                 i + 1 < e2e_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"determinism\": {\"shards\": 8, \"flows_per_shard\": 20,"
               " \"workers_compared\": [1, 4],\n"
               "    \"fingerprint_match\": %s, \"fingerprint\": \"%016llx\"}\n}\n",
               determinism_ok ? "true" : "false",
               static_cast<unsigned long long>(serial.fingerprint));
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return determinism_ok ? 0 : 1;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
