#include "perfbench/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {

void Result::Add(const std::string& name, const std::string& unit, const std::string& better,
                 double value, uint64_t samples) {
  if (!std::isfinite(value)) {
    Check(false, name + " is finite");
    value = 0.0;
  }
  metrics.push_back({name, unit, better, value, samples});
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("CHECK FAILED: " + what);
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string TraceFilePath(const std::string& workload, uint64_t seed) {
  std::error_code ec;
  const std::filesystem::path dir =
      std::filesystem::read_symlink("/proc/self/exe", ec).parent_path() / "traces";
  std::filesystem::create_directories(dir, ec);
  return (dir / (workload + "-seed" + std::to_string(seed) + ".jsonl")).string();
}

}  // namespace perfbench
