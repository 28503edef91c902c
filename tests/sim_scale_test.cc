// Scale-out machinery: packet-pool hygiene across a full scenario, the
// sharded dumbbell runner's worker-count determinism, and the sim.pool.*
// gauges published for --metrics-out scrapes.

#include <gtest/gtest.h>

#include "bench/harness/scenario.h"
#include "src/util/metrics.h"
#include "src/util/thread_pool.h"

namespace astraea {
namespace {

// After every flow stops and the wire drains, each packet slot must be back
// on the freelist — a leak here would grow without bound at a million flows.
TEST(SimScaleTest, PacketPoolDrainsToZeroAfterQuiescence) {
  DumbbellConfig config;
  config.seed = 7;
  DumbbellScenario scenario(config);
  scenario.AddFlow("cubic", /*start=*/0, /*duration=*/Seconds(1.0));
  scenario.AddFlow("cubic", Milliseconds(100), Seconds(1.0));
  // Run well past the last stop: in-flight packets and retransmissions drain.
  scenario.Run(Seconds(3.0));
  PacketPool& pool = scenario.network().packet_pool();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_GT(pool.recycled(), 0u);       // slots actually cycled through
  EXPECT_GT(pool.capacity(), 0u);
  // The pool never needed more slots than the path could physically hold
  // (cwnd-limited in-flight + bottleneck buffer), not one per packet sent.
  EXPECT_LT(pool.capacity(), pool.recycled());
}

// The sharded aggregate is a pure function of (seed stream, shard index):
// running the same config on 1 worker and on several must agree bit for bit,
// shard by shard.
TEST(SimScaleTest, ShardedRunIsWorkerCountInvariant) {
  ShardedDumbbellConfig config;
  config.scheme = "cubic";
  config.shards = 6;
  config.flows_per_shard = 5;
  config.flow_duration = Seconds(0.3);

  config.workers = 1;
  const ShardedRunResult serial = RunShardedDumbbell(config);
  config.workers = 4;
  const ShardedRunResult parallel = RunShardedDumbbell(config);

  ASSERT_EQ(serial.shards.size(), parallel.shards.size());
  for (size_t i = 0; i < serial.shards.size(); ++i) {
    EXPECT_EQ(serial.shards[i].fingerprint, parallel.shards[i].fingerprint) << "shard " << i;
    EXPECT_EQ(serial.shards[i].events_executed, parallel.shards[i].events_executed);
    EXPECT_EQ(serial.shards[i].bytes_acked, parallel.shards[i].bytes_acked);
    EXPECT_EQ(serial.shards[i].bytes_lost, parallel.shards[i].bytes_lost);
  }
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.events_executed, parallel.events_executed);
  EXPECT_GT(serial.events_executed, 0u);
  EXPECT_GT(serial.bytes_acked, 0u);
}

// Shards must simulate distinct seeds: identical outcomes across shards would
// mean the derivation collapsed and the "N independent scenarios" claim is
// void.
TEST(SimScaleTest, ShardsAreDecorrelated) {
  ShardedDumbbellConfig config;
  config.scheme = "cubic";
  config.shards = 4;
  config.flows_per_shard = 3;
  config.flow_duration = Seconds(0.3);
  config.shard.random_loss = 0.01;  // give the RNG a visible role
  const ShardedRunResult result = RunShardedDumbbell(config);
  for (size_t i = 1; i < result.shards.size(); ++i) {
    EXPECT_NE(result.shards[0].fingerprint, result.shards[i].fingerprint) << "shard " << i;
  }
}

// Re-running one shard standalone reproduces exactly what the batched run
// recorded for it (the property the bench's resumable sharding relies on).
TEST(SimScaleTest, SingleShardRerunMatchesBatchedRun) {
  ShardedDumbbellConfig config;
  config.scheme = "cubic";
  config.shards = 3;
  config.flows_per_shard = 4;
  config.flow_duration = Seconds(0.3);
  const ShardedRunResult batched = RunShardedDumbbell(config);
  for (size_t i = 0; i < config.shards; ++i) {
    const ShardResult solo = RunDumbbellShard(config, i);
    EXPECT_EQ(solo.fingerprint, batched.shards[i].fingerprint) << "shard " << i;
    EXPECT_EQ(solo.events_executed, batched.shards[i].events_executed);
  }
}

// Network::Run publishes pool health into the global MetricsRegistry so
// --metrics-out scrapes include it without extra plumbing.
TEST(SimScaleTest, PoolGaugesPublishedAfterRun) {
  DumbbellConfig config;
  config.seed = 11;
  DumbbellScenario scenario(config);
  scenario.AddFlow("cubic", 0, Seconds(0.2));
  scenario.Run(Seconds(0.5));

  MetricsRegistry& metrics = MetricsRegistry::Global();
  EXPECT_GT(metrics.GetGauge("sim.pool.packets_capacity").Value(), 0.0);
  EXPECT_GT(metrics.GetGauge("sim.pool.packets_recycled_total").Value(), 0.0);
  EXPECT_GT(metrics.GetGauge("sim.sched.timers").Value(), 0.0);
  EXPECT_EQ(metrics.GetGauge("sim.pool.packets_live").Value(), 0.0);
}

}  // namespace
}  // namespace astraea
