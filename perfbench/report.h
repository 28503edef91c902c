// Result records shared by the perfbench workloads: named metrics with unit,
// direction and sample count, output checks counted against the number
// attempted, and the small statistics the workloads report.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  // measuring time of a plain run
  bool trace = false;     // traced run: per-layer breakdown instead of end-to-end
};

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  double value = 0.0;
  uint64_t samples = 0;
};

struct Result {
  std::vector<Metric> metrics;     // every figure the run produced, printed by name
  std::vector<std::string> notes;  // digests, timelines and check failures
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, const std::string& unit, const std::string& better,
           double value, uint64_t samples);
  // Counts one output check; a failing one is also printed.
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

std::string Hex(uint64_t v);

// Where a traced run writes its spans: traces/<workload>-seed<seed>.jsonl
// beside the benchmark binary, inside the build directory.
std::string TraceFilePath(const std::string& workload, uint64_t seed);

Result RunFig6Staggered(const Options& options);
Result RunFig10ManyflowMlp(const Options& options);
Result RunTrainTd3(const Options& options);
Result RunServeClosedLoop(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
