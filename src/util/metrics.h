// Process-wide metrics registry: named counters, gauges and histograms that
// any subsystem (trainer, inference server, benches, tools) can bump without
// owning plumbing to a sink.
//
// Design:
//  * Counters are sharded over cache-line-padded relaxed atomics indexed by a
//    per-thread slot, so the hot path is a single uncontended fetch_add
//    (lock-free; threads only collide when more than kCounterShards of them
//    hash to the same cell). Shards are merged on scrape.
//  * Gauges are a single atomic double (last-write-wins set, CAS add).
//  * Histograms bucket observations on a log2 scale (atomic bucket counts)
//    and track count/sum/min/max, giving O(1) lock-free Observe() and
//    bucket-resolution quantile estimates on scrape.
//  * The registry itself takes a mutex only on name lookup and scrape; call
//    sites cache the returned reference (stable for process lifetime).
//
// Export: MetricsRegistry::ToJson() renders every metric as one JSON object,
// suitable for a JSONL line per scrape (astraea_train --metrics-out).

#ifndef SRC_UTIL_METRICS_H_
#define SRC_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace astraea {

// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    cells_[ThreadSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  // Merged total across all thread shards.
  uint64_t Value() const;
  void Reset();

 private:
  static constexpr size_t kCounterShards = 16;
  static size_t ThreadSlot();

  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kCounterShards> cells_{};
};

// Point-in-time double metric.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Log2-bucketed distribution of nonnegative observations. Bucket b holds
// values in (2^(b-kZeroExponent-1), 2^(b-kZeroExponent)]; bucket 0 holds
// everything <= 2^-kZeroExponent (including zero), so the useful range spans
// ~1e-9 .. ~1e9 in units of the caller's choosing.
class Histogram {
 public:
  void Observe(double v);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  double Min() const;  // 0 when empty
  double Max() const;  // 0 when empty
  double Mean() const;
  // Bucket-resolution quantile estimate (upper bound of the bucket containing
  // the q-th observation), q in [0, 1]. 0 when empty.
  double Quantile(double q) const;
  void Reset();

 private:
  static constexpr int kBuckets = 64;
  static constexpr int kZeroExponent = 31;  // bucket 0 covers <= 2^-31
  static int BucketFor(double v);
  static double BucketUpperBound(int b);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Name -> metric registry. References returned by Get* are stable for the
// lifetime of the registry; the intended pattern is to look up once and cache.
class MetricsRegistry {
 public:
  // The process-wide instance used by production code. Tests may construct
  // their own registries for isolation.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // One JSON object with every registered metric, e.g.
  //   {"train.episodes":{"type":"counter","value":12}, ...}
  // Histograms render count/sum/min/max/mean and p50/p95/p99 estimates.
  std::string ToJson() const;

  // Zeroes every metric value (registrations and references stay valid).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace astraea

#endif  // SRC_UTIL_METRICS_H_
