// In-memory tracing for the traced runs: spans (name, start, end, parent)
// for boundaries crossed thousands of times, and count/sum/histogram
// aggregates for the ones crossed millions of times. Everything stays in
// memory until WriteJsonl at the end of the run.

#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One call boundary, aggregated: count, total time and a log2 histogram.
struct CallStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  std::array<uint64_t, 40> log2_ns{};  // bucket b holds calls of [2^b, 2^(b+1)) ns

  void Add(int64_t ns);
  double seconds() const { return static_cast<double>(total_ns) * 1e-9; }
};

struct Span {
  const char* name;  // string literal
  uint32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;

  uint32_t Add(const char* name, uint32_t parent, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, parent, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  uint32_t Begin(const char* name, uint32_t parent) { return Add(name, parent, NowNs(), 0); }
  void End(uint32_t id) { spans_[id].end_ns = NowNs(); }

  // Durations (ns) of every span called `name`, in start order.
  std::vector<double> DurationsNs(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;

  // Writes one JSON object per span and per aggregate, then `extra_lines`
  // (already JSON); false on I/O error.
  bool WriteJsonl(const std::string& path,
                  const std::vector<std::pair<std::string, const CallStats*>>& calls,
                  const std::vector<std::string>& extra_lines) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
