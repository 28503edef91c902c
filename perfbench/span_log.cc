#include "perfbench/span_log.h"

#include <bit>
#include <cstdio>

namespace perfbench {

void CallStats::Add(int64_t ns) {
  ++count;
  total_ns += ns;
  const uint64_t u = ns > 0 ? static_cast<uint64_t>(ns) : 1;
  const size_t bucket = static_cast<size_t>(std::bit_width(u) - 1);
  ++log2_ns[bucket < log2_ns.size() ? bucket : log2_ns.size() - 1];
}

std::vector<double> SpanLog::DurationsNs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (double ns : DurationsNs(name)) {
    total += ns;
  }
  return total * 1e-9;
}

bool SpanLog::WriteJsonl(const std::string& path,
                         const std::vector<std::pair<std::string, const CallStats*>>& calls,
                         const std::vector<std::string>& extra_lines) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"span\":%zu,\"name\":\"%s\",\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.name, s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  for (const auto& [name, stats] : calls) {
    std::fprintf(f, "{\"aggregate\":\"%s\",\"count\":%llu,\"total_ns\":%lld,\"log2_ns\":[",
                 name.c_str(), static_cast<unsigned long long>(stats->count),
                 static_cast<long long>(stats->total_ns));
    for (size_t b = 0; b < stats->log2_ns.size(); ++b) {
      std::fprintf(f, "%s%llu", b == 0 ? "" : ",",
                   static_cast<unsigned long long>(stats->log2_ns[b]));
    }
    std::fprintf(f, "]}\n");
  }
  for (const std::string& line : extra_lines) {
    std::fprintf(f, "%s\n", line.c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
